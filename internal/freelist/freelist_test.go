package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestRetentionIsBounded: a list hands back what it kept, keeps at most
// GOMAXPROCS buffers, and drops a buffer above its cap.
func TestRetentionIsBounded(t *testing.T) {
	l := New(64, func(b *[]byte) int { return cap(*b) })
	small, big := make([]byte, 0, 64), make([]byte, 0, 65)
	l.Put(&big)
	if got := l.Get(); cap(*got) != 0 {
		t.Fatalf("a %d-byte buffer above the 64-byte cap was kept", cap(*got))
	}
	l.Put(&small)
	if got := l.Get(); got != &small {
		t.Fatal("Get did not return the buffer Put kept")
	}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		b := make([]byte, 0, 8)
		l.Put(&b)
	}
	if n := len(l.free); n != runtime.GOMAXPROCS(0) {
		t.Fatalf("the list holds %d buffers, want GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
}

// TestSurvivesCollection: unlike a sync.Pool's, the list's buffers survive
// a garbage collection.
func TestSurvivesCollection(t *testing.T) {
	l := New(1<<10, func(b *[]byte) int { return cap(*b) })
	b := make([]byte, 0, 100)
	l.Put(&b)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != &b {
		t.Fatal("a garbage collection emptied the list")
	}
}

// TestConcurrentGetsShareNothing: goroutines taking and returning buffers
// at once never hold the same buffer together.
func TestConcurrentGetsShareNothing(t *testing.T) {
	l := New(1<<10, func(b *[]int) int { return cap(*b) * 8 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := l.Get()
				*b = append((*b)[:0], g, i)
				runtime.Gosched()
				if (*b)[0] != g || (*b)[1] != i {
					t.Errorf("goroutine %d's buffer was written by another: %v", g, *b)
					return
				}
				l.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
