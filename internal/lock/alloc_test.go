//go:build !race

package lock

import (
	"context"
	"testing"
)

// TestReacquireHeldAllocsNothing: a transaction asking again for locks it
// already holds — every statement of an explicit transaction re-requests
// the shared catalog lock BEGIN took — allocates nothing. Normalizing each
// request list on every call cost 2 allocations here.
func TestReacquireHeldAllocsNothing(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	reqs := []Request{{Table: "__CATALOG__", Mode: Shared}, {Table: "T", Mode: Exclusive}}
	mustAcquire(t, tx, reqs)
	ctx := context.Background()
	got := testing.AllocsPerRun(100, func() {
		if err := tx.AcquireContext(ctx, reqs[:1]); err != nil {
			t.Fatal(err)
		}
		if err := tx.AcquireContext(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("%.0f allocations re-acquiring held locks, want 0", got)
	}
	tx.ReleaseAll()
}

// TestAutocommitLockAllocs bounds an autocommitted statement's locking: a
// fresh transaction, a two-lock set and its release. The bound is the count
// measured when it was set (the transaction, its held map and abort
// channel, the map's first bucket and the release's wake channel);
// normalizing the set and growing the grant list cost 12.
func TestAutocommitLockAllocs(t *testing.T) {
	m := NewManager()
	reqs := []Request{{Table: "__CATALOG__", Mode: Shared}, {Table: "T", Mode: Exclusive}}
	ctx := context.Background()
	got := testing.AllocsPerRun(100, func() {
		tx := m.Begin()
		if err := tx.AcquireContext(ctx, reqs); err != nil {
			t.Fatal(err)
		}
		tx.ReleaseAll()
	})
	if max := 5.0; got > max {
		t.Fatalf("%.0f allocations per autocommitted lock set, want at most %.0f", got, max)
	}
}
