package lock

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	h1 := m.Acquire([]Request{{Table: "T", Mode: Shared}})
	h2 := m.Acquire([]Request{{Table: "T", Mode: Shared}})
	readers, writer := m.Holders("T")
	if readers != 2 || writer {
		t.Fatalf("holders: %d readers writer=%v", readers, writer)
	}
	h1.Release()
	h2.Release()
	readers, writer = m.Holders("T")
	if readers != 0 || writer {
		t.Fatal("locks not released")
	}
}

func TestExclusiveExcludes(t *testing.T) {
	m := NewManager()
	h := m.Acquire([]Request{{Table: "T", Mode: Exclusive}})
	if got := m.TryAcquire([]Request{{Table: "T", Mode: Shared}}); got != nil {
		t.Fatal("shared must not coexist with exclusive")
	}
	if got := m.TryAcquire([]Request{{Table: "T", Mode: Exclusive}}); got != nil {
		t.Fatal("two exclusives must not coexist")
	}
	if got := m.TryAcquire([]Request{{Table: "OTHER", Mode: Exclusive}}); got == nil {
		t.Fatal("unrelated table must be grantable")
	} else {
		got.Release()
	}
	h.Release()
	h2 := m.TryAcquire([]Request{{Table: "T", Mode: Exclusive}})
	if h2 == nil {
		t.Fatal("lock must be grantable after release")
	}
	h2.Release()
}

func TestWriterWaitsForReaders(t *testing.T) {
	m := NewManager()
	reader := m.Acquire([]Request{{Table: "T", Mode: Shared}})
	acquired := make(chan struct{})
	go func() {
		w := m.Acquire([]Request{{Table: "T", Mode: Exclusive}})
		close(acquired)
		w.Release()
	}()
	select {
	case <-acquired:
		t.Fatal("writer acquired while a reader holds the lock")
	case <-time.After(20 * time.Millisecond):
	}
	reader.Release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("writer never acquired after reader release")
	}
}

// TestAcquireGrantsTheSetAsGiven: a lock set arrives canonical (built by
// compile.LockRequests, which TestCanonicalLockSet covers), and
// AcquireContext grants it in the order given, neither sorting nor merging
// it: with B held exclusively elsewhere, [A X, B S] holds A while it waits
// for B. Once granted, each table is held once in its mode, and ReleaseAll
// frees both.
func TestAcquireGrantsTheSetAsGiven(t *testing.T) {
	m := NewManager()
	blocker := m.Acquire([]Request{{Table: "B", Mode: Exclusive}})
	tx := m.Begin()
	done := make(chan error, 1)
	go func() {
		done <- tx.AcquireContext(context.Background(), []Request{
			{Table: "A", Mode: Exclusive},
			{Table: "B", Mode: Shared},
		})
	}()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, w := m.Holders("A"); w {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A not granted before the wait on B")
		}
	}
	blocker.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	readersA, writerA := m.Holders("A")
	if readersA != 0 || !writerA {
		t.Fatalf("A should be exclusively locked once: %d %v", readersA, writerA)
	}
	readersB, writerB := m.Holders("B")
	if readersB != 1 || writerB {
		t.Fatalf("B should be shared once: %d %v", readersB, writerB)
	}
	tx.ReleaseAll()
	if r, w := m.Holders("A"); r != 0 || w {
		t.Fatal("A not fully released")
	}
	if r, w := m.Holders("B"); r != 0 || w {
		t.Fatal("B not fully released")
	}
}

func TestReleaseIdempotent(t *testing.T) {
	m := NewManager()
	h := m.Acquire([]Request{{Table: "T", Mode: Shared}})
	h.Release()
	h.Release() // no panic, no double-decrement
	if r, _ := m.Holders("T"); r != 0 {
		t.Fatalf("readers %d after double release", r)
	}
	var nilHeld *Held
	nilHeld.Release() // nil-safe
}

// TestNoDeadlockUnderContention: goroutines repeatedly lock overlapping
// table sets with conflicting modes, each set sorted as every caller's is;
// sorted acquisition must prevent deadlock. Run with -race.
func TestNoDeadlockUnderContention(t *testing.T) {
	m := NewManager()
	tables := []string{"A", "B", "C", "D"}
	var wg sync.WaitGroup
	var ops int64
	deadline := time.Now().Add(300 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// Each goroutine asks for two tables with mixed modes.
				a := tables[g%len(tables)]
				b := tables[(g+1+g%2)%len(tables)]
				mode := Shared
				if g%3 == 0 {
					mode = Exclusive
				}
				reqs := []Request{{Table: b, Mode: mode}, {Table: a, Mode: Shared}}
				if a < b { // lock sets arrive sorted (compile.LockRequests)
					reqs[0], reqs[1] = reqs[1], reqs[0]
				}
				h := m.Acquire(reqs)
				atomic.AddInt64(&ops, 1)
				h.Release()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: workers did not finish")
	}
	if ops == 0 {
		t.Fatal("no operations completed")
	}
	if n := m.Deadlocks(); n != 0 {
		t.Fatalf("%d deadlock victims under sorted acquisition", n)
	}
	for _, tb := range tables {
		if r, w := m.Holders(tb); r != 0 || w {
			t.Fatalf("table %s left locked: %d %v", tb, r, w)
		}
	}
}

// TestSharedConcurrency verifies that shared locks genuinely run in
// parallel: the max observed concurrent reader count must exceed 1.
func TestSharedConcurrency(t *testing.T) {
	m := NewManager()
	var cur, max int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := m.Acquire([]Request{{Table: "T", Mode: Shared}})
				n := atomic.AddInt64(&cur, 1)
				for {
					old := atomic.LoadInt64(&max)
					if n <= old || atomic.CompareAndSwapInt64(&max, old, n) {
						break
					}
				}
				time.Sleep(time.Microsecond)
				atomic.AddInt64(&cur, -1)
				h.Release()
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt64(&max) < 2 {
		t.Fatalf("max concurrent readers %d; shared locks should coexist", max)
	}
}

func TestAcquireContextCanceledBeforeWait(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := m.AcquireContext(ctx, []Request{{Table: "T", Mode: Exclusive}})
	if h != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled acquire: held=%v err=%v", h, err)
	}
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after failed acquire", m.Outstanding())
	}
}

func TestAcquireContextCancelWhileWaiting(t *testing.T) {
	m := NewManager()
	blocker := m.Acquire([]Request{{Table: "B", Mode: Exclusive}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A grants immediately; B blocks behind the writer. Cancellation must
		// roll back the grant on A.
		h, err := m.AcquireContext(ctx, []Request{
			{Table: "A", Mode: Shared}, {Table: "B", Mode: Shared},
		})
		if h != nil {
			h.Release()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	if got := m.Outstanding(); got != 1 { // only the blocker remains
		t.Fatalf("outstanding = %d after canceled waiter rollback, want 1", got)
	}
	blocker.Release()
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after release", m.Outstanding())
	}
}

func TestAcquireContextDeadline(t *testing.T) {
	m := NewManager()
	blocker := m.Acquire([]Request{{Table: "T", Mode: Exclusive}})
	defer blocker.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	h, err := m.AcquireContext(ctx, []Request{{Table: "T", Mode: Shared}})
	if h != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline acquire: held=%v err=%v", h, err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("deadline not honored: waited %v", time.Since(start))
	}
}

// TestCancelDoesNotStrandOtherWaiters: a canceled waiter's rollback must wake
// the remaining waiters (its partial grants may be what they were queued on).
func TestCancelDoesNotStrandOtherWaiters(t *testing.T) {
	m := NewManager()
	blocker := m.Acquire([]Request{{Table: "B", Mode: Exclusive}})
	ctx, cancel := context.WithCancel(context.Background())
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		// Grants A exclusively, then parks on B.
		h, _ := m.AcquireContext(ctx, []Request{
			{Table: "A", Mode: Exclusive}, {Table: "B", Mode: Shared},
		})
		if h != nil {
			h.Release()
		}
	}()
	time.Sleep(10 * time.Millisecond)
	secondDone := make(chan struct{})
	go func() {
		defer close(secondDone)
		// Queued behind the first waiter's exclusive grant on A.
		m.Acquire([]Request{{Table: "A", Mode: Shared}}).Release()
	}()
	time.Sleep(10 * time.Millisecond)
	cancel() // first waiter rolls back A; second must wake and proceed
	select {
	case <-secondDone:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded after another waiter's cancellation")
	}
	<-firstDone
	blocker.Release()
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d at end", m.Outstanding())
	}
}
