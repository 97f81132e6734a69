// Package storage mirrors the pool/page mutex tiers: BufferPool.mu is rank
// 80 and Page.mu rank 100 — the innermost leaves of the hierarchy, so
// almost nothing may be acquired while they are held.
package storage

import (
	"sync"

	"fixture/lock"
)

type Page struct {
	mu sync.RWMutex
}

type BufferPool struct {
	mu    sync.Mutex
	locks *lock.Manager
}

// Fetch is the clean shape: the structural lock guards only the map work.
func (p *BufferPool) Fetch(id int) *Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Page{}
}

// helper exists to prove summaries propagate two levels: its own summary
// inherits Fetch's rank-80 acquisition.
func (p *BufferPool) helper() *Page {
	return p.Fetch(2)
}

// evictThenLock acquires a table lock while holding the structural mutex:
// a blocked table-lock wait would hold the pool lock indefinitely.
func (p *BufferPool) evictThenLock() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
}

// latchThenPool takes the pool lock while holding a page latch: rank 80
// under rank 100, directly.
func (p *BufferPool) latchThenPool(pg *Page) {
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	p.mu.Lock() // want "while holding storage.Page.mu"
	p.mu.Unlock()
}

// latchThenFetch reaches the same inversion through two calls: helper's
// summary carries Fetch's acquisition.
func (p *BufferPool) latchThenFetch(pg *Page) {
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	p.helper() // want "call to storage.BufferPool.helper may acquire"
}

// sequential is clean: the page latch is released before the pool lock.
func (p *BufferPool) sequential(pg *Page) {
	pg.mu.RLock()
	pg.mu.RUnlock()
	p.mu.Lock()
	p.mu.Unlock()
}

// breakOut holds the pool lock across the break that leaves the loop.
func (p *BufferPool) breakOut(n int) error {
	for {
		p.mu.Lock()
		if n > 0 {
			break
		}
		p.mu.Unlock()
	}
	defer p.mu.Unlock()
	return p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
}

// switchAllLock locks in every case, default included, so the lock is held
// on every path out of the switch.
func (p *BufferPool) switchAllLock(n int) error {
	switch n {
	case 0:
		p.mu.Lock()
	default:
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	return p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
}

// continueHeld: the unlocked path continues to the loop head; only the
// break, with the lock held, leaves the loop.
func (p *BufferPool) continueHeld(n int) error {
	for {
		p.mu.Lock()
		if n > 0 {
			p.mu.Unlock()
			continue
		}
		break
	}
	defer p.mu.Unlock()
	return p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
}

// labeledBreak leaves the loop, not the select, with the lock held.
func (p *BufferPool) labeledBreak(ch chan int) error {
outer:
	for {
		select {
		case <-ch:
			p.mu.Lock()
			break outer
		default:
		}
	}
	defer p.mu.Unlock()
	return p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
}

// Disk mirrors the rank-90 page-table mutex.
type Disk struct {
	mu sync.Mutex
}

// unlockInLoop gives up the pool lock inside the loop, so the body is
// walked a second time from the lower loop head. The page latch is held on
// both walks; the inversion under it is reported once.
func (p *BufferPool) unlockInLoop(pg *Page, d *Disk, n int) {
	p.mu.Lock()
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	for i := 0; i < n; i++ {
		d.mu.Lock() // want "while holding storage.Page.mu"
		d.mu.Unlock()
		p.mu.Unlock()
	}
}

// goLocked: a goroutine's body is walked with its own held set. Taking the
// pool lock there is no self-deadlock, but a table lock under it is.
func (p *BufferPool) goLocked() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		_ = p.locks.Acquire("emp") // want "while holding storage.BufferPool.mu"
	}()
}

// Visitor is called back under a page latch, as a page visit judges the
// versions of a scan.
type Visitor interface {
	Visit(slot int) bool
}

// visitPage holds the latch across the callback: an implementation that
// fetches a page inverts the order, and the call through the interface is
// checked against it.
func (pg *Page) visitPage(v Visitor) {
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	v.Visit(0) // want "call to storage.fetchingVisitor.Visit may acquire storage.BufferPool.mu"
}

type fetchingVisitor struct{ pool *BufferPool }

func (v *fetchingVisitor) Visit(slot int) bool { return v.pool.Fetch(slot) != nil }

type countingVisitor struct{ n int }

func (v *countingVisitor) Visit(int) bool { v.n++; return true }
