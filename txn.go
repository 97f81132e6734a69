package systemr

// Multi-statement transactions. System R ran every statement inside a
// transaction whose locks were "held to the end of the transaction" and whose
// recovery subsystem could undo it; this layer reproduces that at the engine's
// granularity: a Txn owns table locks under strict two-phase locking and an
// undo log of every mutation, so COMMIT publishes all of its statements and
// ROLLBACK (or an engine abort after a deadlock) reverts all of them.
//
// A Txn is a single session: its methods must not be called concurrently
// with each other (a mutex serializes them defensively), though many Txns —
// each on its own goroutine — run concurrently against one DB, coordinated
// by the lock manager.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"systemr/internal/check"
	"systemr/internal/lock"
	"systemr/internal/txn"
)

// Txn is an explicit multi-statement transaction. Statements executed on it
// accumulate locks (released at Commit/Rollback, never earlier) and undo
// records (applied in reverse on Rollback). If the engine aborts the
// transaction — deadlock victim or lock timeout — its work is already rolled
// back and every further statement fails with ErrTxnAborted until the
// session acknowledges via Rollback; the transaction is then retryable from
// Begin.
type Txn struct {
	db *DB
	mu sync.Mutex
	t  *txn.Txn
}

// Begin starts a transaction. The API-level equivalent of executing BEGIN on
// a Conn.
//
// The transaction holds the shared catalog lock from BEGIN to its end, so
// catalog changes wait for it even while it is idle: no older snapshot
// outlives a CREATE INDEX that indexes only the versions its own snapshot
// sees. Begin waits for a running DDL statement under Config.LockTimeout; on
// a timeout the returned transaction is already aborted, as after a lock
// timeout in any statement.
func (db *DB) Begin() *Txn {
	t := db.newTxn(nil)
	db.activeTxns.Add(1)
	db.metrics.txnBegins.Inc()
	if err := t.Locks.AcquireContext(context.Background(), catalogShared); err != nil {
		if !errors.Is(err, lock.ErrLockTimeout) {
			check.Failf("systemr: BEGIN's catalog lock: %v", err)
		}
		db.metrics.lockTimeouts.Inc()
		_ = db.abort(t, true, err) // nothing to undo
		return &Txn{db: db, t: t}
	}
	t.Register(db.txns.Begin())
	return &Txn{db: db, t: t}
}

// Exec runs one statement inside the transaction.
func (x *Txn) Exec(text string) (*Result, error) {
	return x.ExecContext(context.Background(), text)
}

// ExecContext is Exec observing ctx. A failed statement (error, cancellation,
// budget, contained panic) is undone back to its own start; the transaction
// stays active and usable. Only a deadlock or lock-timeout abort takes the
// whole transaction down.
func (x *Txn) ExecContext(ctx context.Context, text string) (*Result, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.db.execText(ctx, x.t, text)
}

// Query is Exec restricted to statements that return rows.
func (x *Txn) Query(text string) (*Result, error) {
	return x.QueryContext(context.Background(), text)
}

// QueryContext is Query observing ctx.
func (x *Txn) QueryContext(ctx context.Context, text string) (*Result, error) {
	res, err := x.ExecContext(ctx, text)
	return queryOnly(text, res, err)
}

// Commit makes the transaction's mutations permanent and releases its locks.
// Committing a transaction the engine aborted returns an error wrapping
// ErrTxnAborted — the work is already rolled back and cannot be committed.
// Commit is idempotent: calling it again after the transaction finished
// (either way) returns nil.
func (x *Txn) Commit() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch x.t.State() {
	case txn.Finished:
		return nil
	case txn.Aborted:
		x.t.Finish()
		return fmt.Errorf("systemr: cannot commit: %w", ErrTxnAborted)
	}
	x.db.endTxn(x.t, true, true)
	return nil
}

// Rollback undoes every statement of the transaction (newest first) and
// releases its locks. It is idempotent and always safe: after Commit it is a
// no-op, and after an engine abort it simply acknowledges the rollback the
// engine already performed.
func (x *Txn) Rollback() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch x.t.State() {
	case txn.Finished, txn.Aborted:
		x.t.Finish()
		return nil
	}
	// The undo completes before endTxn deregisters: mid-rollback, this
	// transaction's XID must still read as active to every snapshot.
	err := x.t.UndoAll()
	x.db.endTxn(x.t, true, false)
	return err
}

// Aborted reports whether the engine rolled the transaction back (deadlock
// victim or lock timeout) and is waiting for the session to acknowledge with
// Rollback.
func (x *Txn) Aborted() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.t.State() == txn.Aborted
}
