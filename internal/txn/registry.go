package txn

import (
	"sync"

	"systemr/internal/storage"
)

// Registry allocates transaction IDs and tracks which transactions are
// in-flight, so that (a) every Begin can capture a consistent MVCC snapshot —
// its own ID as the ceiling plus the set of XIDs active at that instant — and
// (b) vacuum can compute the oldest XID any live snapshot could still need
// (Horizon). There is no commit log: the engine undoes aborted transactions
// physically, so an XID that survives in a version header and is neither
// active nor in a snapshot's active set is, by elimination, committed.
type Registry struct {
	mu     sync.Mutex
	next   storage.XID
	active map[storage.XID]*Reg
}

// Reg is one registered transaction: its XID, the snapshot it reads under,
// and the oldest XID that snapshot can reach (for Horizon).
type Reg struct {
	// ID is the transaction's XID.
	ID storage.XID
	// Snap is the MVCC snapshot captured at Begin.
	Snap *storage.Snapshot
	// min is the oldest XID this registration pins: its own, or the oldest
	// transaction that was still active when its snapshot was taken —
	// whichever is smaller. Versions deleted by XIDs below the minimum over
	// all registrations are invisible to every live snapshot.
	min storage.XID

	done bool
}

// NewRegistry returns an empty registry; XIDs start at 1 (0 is FrozenXID,
// "always committed", used by catalog bootstrap rows).
func NewRegistry() *Registry {
	return &Registry{next: 1, active: make(map[storage.XID]*Reg)}
}

// Begin allocates the next XID, captures a snapshot of the transactions
// active at this instant, and registers the new transaction as active.
func (r *Registry) Begin() *Reg {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.next
	r.next++
	snap := &storage.Snapshot{Self: id, Max: id, Active: make(map[storage.XID]struct{}, len(r.active))}
	min := id
	for xid := range r.active {
		snap.Active[xid] = struct{}{}
		if xid < min {
			min = xid
		}
	}
	reg := &Reg{ID: id, Snap: snap, min: min}
	r.active[id] = reg
	return reg
}

// Finish deregisters a transaction (commit or completed rollback): its XID
// stops pinning the vacuum horizon and stops appearing in new snapshots'
// active sets. Nil-safe and idempotent.
func (r *Registry) Finish(reg *Reg) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if reg.done {
		return
	}
	reg.done = true
	delete(r.active, reg.ID)
}

// Horizon returns the oldest XID any live snapshot could still need to see.
// A version whose delete mark (xmax) is below the horizon is dead to every
// current and future snapshot and may be vacuumed.
func (r *Registry) Horizon() storage.XID {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.next
	for _, reg := range r.active {
		if reg.min < h {
			h = reg.min
		}
	}
	return h
}
