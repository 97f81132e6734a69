// Package txn is the transaction layer the paper credits the RSS with
// ("locking … and logging and recovery facilities", Section 3): logical undo
// logging over the RSI's insert/delete primitives, statement- and
// transaction-level rollback, and transaction-scope lock ownership.
//
// Every mutation flows through Txn.Insert / Txn.Delete, which append the
// inverse operation to the undo log around the segment mutation (the txnundo
// sysrcheck analyzer enforces that no other write path exists in the
// engine). Under MVCC the forward operations are versioned — Insert stores a
// new version stamped with the transaction's XID, Delete stamps the XID as
// the version's deleter in place — and undo is their exact physical inverse:
// removing the fresh version, or clearing the delete mark. Pages never
// compact or reuse heap space, so the post-rollback state is byte-identical
// to the pre-statement dump — the crash-consistency harness asserts exactly
// that.
//
// A Txn is a state machine: Active until Commit/Rollback (→ Finished) or
// until the engine aborts it as a deadlock victim (→ Aborted, undo and lock
// release already performed). It is owned by one session and is not safe for
// concurrent use, like the connection that holds it.
package txn

import (
	"errors"
	"fmt"

	"systemr/internal/catalog"
	"systemr/internal/lock"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// State is a transaction's lifecycle position.
type State uint8

const (
	// Active accepts statements.
	Active State = iota
	// Aborted was rolled back by the engine (deadlock victim or lock
	// timeout): undo already ran and locks are released. Statements fail
	// until the session acknowledges with Rollback.
	Aborted
	// Finished committed or rolled back; terminal.
	Finished
)

// String names the state for error messages.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Aborted:
		return "aborted"
	default:
		return "finished"
	}
}

// FaultFunc is the mutation-phase fault hook: consulted with the 1-based
// ordinal of each logged mutation before the segment is touched; a non-nil
// error fails the statement at exactly that point. The deterministic
// crash-consistency sweep (FailNth over every ordinal) is built on it, the
// mutation-side analog of storage.FaultInjector on the fetch side.
type FaultFunc func(n int64) error

// FailNth returns a FaultFunc that fails the nth mutation (1-based) with
// storage.ErrInjectedFault.
func FailNth(n int64) FaultFunc {
	return func(k int64) error {
		if k == n {
			return fmt.Errorf("%w: mutation %d", storage.ErrInjectedFault, k)
		}
		return nil
	}
}

// ErrWriteConflict is rss.ErrWriteConflict re-exported: a statement tried to
// delete or update a tuple version that a concurrent, already-committed
// transaction deleted first (first-updater-wins). The engine aborts the
// whole transaction; like a deadlock, the transaction is safe to retry.
var ErrWriteConflict = rss.ErrWriteConflict

// op is an undo record's operation.
type op uint8

const (
	opInsert op = iota // forward insert; undo removes the version at TID
	opMark             // forward delete mark; undo clears the mark at TID
)

// undoRec is one logged inverse: enough to exactly revert a single RSI
// mutation. row is the stored tuple image (post-coercion), from which both
// the page bytes and every index key are reconstructed.
type undoRec struct {
	op    op
	table *catalog.Table
	tid   storage.TID
	row   value.Row
}

// Txn is one transaction: lock ownership, the undo log, and lifecycle state.
type Txn struct {
	// Locks is the transaction's lock ownership (strict 2PL: released only
	// by the engine at commit, rollback, or abort).
	Locks *lock.Txn

	disk  *storage.Disk
	reg   *Reg
	state State
	undo  []undoRec
	muts  int64 // logged mutations so far (fault-hook ordinal)
	fault FaultFunc
}

// New creates an Active transaction owning locks through lt, stamping its
// versions with (and reading under the snapshot of) the registration reg.
// A nil reg yields XID 0 (FrozenXID) and a nil snapshot until Register
// attaches one; it must not read or write before then except in bootstrap
// and storage-level tests.
func New(lt *lock.Txn, disk *storage.Disk, reg *Reg) *Txn {
	return &Txn{Locks: lt, disk: disk, reg: reg}
}

// Reg returns the transaction's registry registration (nil for bootstrap
// transactions).
func (t *Txn) Reg() *Reg { return t.reg }

// Register attaches reg to a transaction created without one. An
// autocommitted statement registers only once its locks are granted, so its
// snapshot already includes every transaction it waited behind.
func (t *Txn) Register(reg *Reg) { t.reg = reg }

// XID returns the transaction's ID (FrozenXID when unregistered).
func (t *Txn) XID() storage.XID {
	if t.reg == nil {
		return storage.FrozenXID
	}
	return t.reg.ID
}

// Snapshot returns the MVCC snapshot the transaction reads under (nil —
// "latest committed" — when unregistered).
func (t *Txn) Snapshot() *storage.Snapshot {
	if t.reg == nil {
		return nil
	}
	return t.reg.Snap
}

// SetFault installs the mutation fault hook (nil removes it).
func (t *Txn) SetFault(f FaultFunc) { t.fault = f }

// State returns the transaction's lifecycle state.
func (t *Txn) State() State { return t.state }

// Finish marks the transaction terminal (commit or acknowledged rollback).
func (t *Txn) Finish() { t.state = Finished }

// MarkAborted marks the transaction engine-aborted (undo and lock release
// must already have happened).
func (t *Txn) MarkAborted() { t.state = Aborted }

// Mark returns the current undo-log position; UndoTo(mark) reverts every
// mutation logged after it — the statement-atomicity mechanism.
func (t *Txn) Mark() int { return len(t.undo) }

// tick consults the fault hook before a mutation.
func (t *Txn) tick() error {
	t.muts++
	if t.fault == nil {
		return nil
	}
	return t.fault(t.muts)
}

// Insert stores a row through the RSI as a new version created by this
// transaction and logs its inverse. prev links the version this one
// supersedes (the delete half of an UPDATE) or storage.NoPrevTID for a plain
// INSERT. The log entry is appended after the store: rss.Insert either
// completes fully or mutates nothing (validation and unique checks precede
// the segment write), so there is no half-applied state to log for.
func (t *Txn) Insert(tab *catalog.Table, row value.Row, prev storage.TID) (storage.TID, error) {
	if err := t.tick(); err != nil {
		return storage.TID{}, err
	}
	tid, stored, err := rss.Insert(tab, row, t.XID(), prev, t.disk)
	if err != nil {
		return storage.TID{}, err
	}
	t.undo = append(t.undo, undoRec{op: opInsert, table: tab, tid: tid, row: stored})
	return tid, nil
}

// Delete stamps this transaction as the deleter of the version at tid
// (stored image row) through the RSI and logs its inverse. The log entry is
// appended before the mutation and popped if the mark fails (nothing
// mutated) — including with rss.ErrWriteConflict when another transaction
// got there first.
func (t *Txn) Delete(tab *catalog.Table, tid storage.TID, row value.Row) error {
	if err := t.tick(); err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{op: opMark, table: tab, tid: tid, row: row})
	if err := rss.MarkDeleted(tab, tid, t.XID(), t.disk); err != nil {
		t.undo = t.undo[:len(t.undo)-1]
		return err
	}
	return nil
}

// UndoTo reverts every mutation logged after mark, newest first, and
// truncates the log. Undo of an insert physically removes the fresh version
// (leaving a dead slot dumps ignore); undo of a delete clears the mark in
// place, resurrecting the version byte-exactly at its original TID. Errors
// are collected but do not stop the unwind — every remaining record is still
// attempted — and the log is truncated regardless, so a second UndoTo cannot
// double-apply.
func (t *Txn) UndoTo(mark int) error {
	var errs []error
	for i := len(t.undo) - 1; i >= mark; i-- {
		r := t.undo[i]
		var err error
		switch r.op {
		case opInsert:
			err = rss.Remove(r.table, r.tid, r.row, t.disk)
		case opMark:
			err = rss.ClearDeleted(r.table, r.tid, t.XID(), t.disk)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("txn: undo of %s %v: %w", r.table.Name, r.tid, err))
		}
	}
	t.undo = t.undo[:mark]
	return errors.Join(errs...)
}

// UndoAll reverts the whole transaction's mutations (rollback).
func (t *Txn) UndoAll() error { return t.UndoTo(0) }

// Mutations returns how many mutations the transaction has logged
// (testing/inspection).
func (t *Txn) Mutations() int64 { return t.muts }
