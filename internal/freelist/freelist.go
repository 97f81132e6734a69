// Package freelist keeps a few spare buffers between the operations that
// grow them, as sync.Pool does, except that a garbage collection does not
// empty it: what one statement grew the next one reuses, whenever the
// collector ran in between, so the bytes a workload allocates do not depend
// on when collections fall. Its retention is bounded instead: it holds at
// most as many buffers as GOMAXPROCS was when it was made, one for each
// goroutine that can run at once, and it drops any buffer above its cap.
package freelist

import (
	"runtime"
	"sync"
)

// List is a mutex-guarded stack of spare *T.
type List[T any] struct {
	mu       sync.Mutex
	free     []*T
	max      int          // buffers held at most
	maxBytes int          // a buffer above this many bytes is dropped
	size     func(*T) int // a buffer's bytes
}

// New returns an empty list that keeps buffers of at most maxBytes, as
// size measures them.
func New[T any](maxBytes int, size func(*T) int) *List[T] {
	return &List[T]{max: runtime.GOMAXPROCS(0), maxBytes: maxBytes, size: size}
}

// Get returns a spare buffer, or a new zero one when none is kept.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	b := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return b
}

// Put keeps b for a later Get, unless b is above the cap or the list is
// full. The caller must not use b again.
func (l *List[T]) Put(b *T) {
	if l.size(b) > l.maxBytes {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max {
		l.free = append(l.free, b)
	}
}
