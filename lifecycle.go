package systemr

// The statement lifecycle. The paper's access module is "compiled once and
// run many times", so an ad hoc, cached, prepared, or cursor execution
// differs only in where it enters the pipeline — never in how it is locked,
// snapshotted, governed, and finished. Every entry point (DB.Exec and its
// Query/Explain wrappers, Txn and Conn statements, Stmt.Run, Stmt.Open)
// therefore runs through the one method below.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"systemr/internal/compile"
	"systemr/internal/governor"
	"systemr/internal/lock"
	"systemr/internal/sql"
	"systemr/internal/txn"
	"systemr/internal/value"
)

// statement is one pass through the lifecycle: SQL text (DB, Txn, Conn) or
// a prepared statement's run or cursor (Stmt.Run, Stmt.Open). The lower
// fields are filled in as it proceeds.
type statement struct {
	text   string
	prep   *Stmt
	args   []any
	cursor bool // the transaction lives on until Rows.Close

	norm   string
	parsed sql.Statement // nil on a plan-cache hit and for prepared runs
	vals   []value.Value
	res    *Result
	rows   *Rows
}

// lifecycle runs one statement, autocommitted (cur == nil: an ephemeral
// transaction scoped to the statement, or to a cursor's life) or inside the
// explicit transaction cur, whose locks and undo log accumulate across
// statements. In order, it:
//
//  1. applies StatementTimeout (a cursor is exempt: the application paces it);
//  2. refuses an explicit transaction that was aborted or has ended;
//  3. derives the statement's lock set and acquires it;
//  4. on a lock failure, aborts;
//  5. registers an autocommitted statement's snapshot only after the grant,
//     so a writer that waited behind a committing transaction reads its
//     commit instead of conflicting with it (an explicit transaction keeps
//     its BEGIN-time snapshot: repeatable reads, first-updater-wins);
//  6. marks the undo log, creates the governor, and contains panics;
//  7. runs the body;
//  8. aborts on a write conflict, else undoes a failure back to the mark;
//  9. ends an autocommitted transaction, unless a cursor keeps it;
//  10. counts the statement in the metrics.
func (db *DB) lifecycle(ctx context.Context, cur *txn.Txn, st *statement) (err error) {
	start := time.Now()
	defer func() { db.observeStatement(start, err) }()
	if db.cfg.StatementTimeout > 0 && !st.cursor {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.cfg.StatementTimeout)
		defer cancel()
	}
	explicit := cur != nil
	if explicit {
		switch cur.State() {
		case txn.Aborted:
			return fmt.Errorf("%w; ROLLBACK to start over", ErrTxnAborted)
		case txn.Finished:
			return errors.New("systemr: transaction has already committed or rolled back")
		}
	}
	reqs, err := db.lockSet(st, explicit)
	if err != nil {
		return err
	}
	if !explicit {
		cur = db.newTxn(nil)
	}
	if err := cur.Locks.AcquireContext(ctx, reqs); err != nil {
		// A deadlock victim or a lock timeout aborts the transaction and
		// passes through for errors.Is; a context failure is classified by
		// the governor (canceled vs deadline) and leaves an explicit
		// transaction usable.
		victim := errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrLockTimeout)
		if victim || !explicit {
			err = db.abort(cur, explicit, err)
		}
		if !victim {
			err = governor.CtxErr(err)
		}
		return &StatementError{Err: err}
	}
	if !explicit {
		cur.Register(db.txns.Begin())
	}
	mark := cur.Mark()
	err = db.runBody(db.newGovernor(ctx), cur, st)
	switch {
	case errors.Is(err, txn.ErrWriteConflict):
		return &StatementError{Err: db.abort(cur, explicit, err)}
	case err != nil:
		if uerr := cur.UndoTo(mark); uerr != nil {
			err = errors.Join(err, uerr)
		}
	case st.cursor:
		return nil
	}
	if !explicit {
		db.endTxn(cur, false, true)
	}
	return err
}

// lockSet derives the lock set a statement runs under: a prepared
// statement's from its current plan, a cached SELECT's from the peeked
// plan-cache entry, anything else's from its parse.
func (db *DB) lockSet(st *statement, explicit bool) ([]lock.Request, error) {
	if st.prep != nil {
		vals, err := hostValues(st.args)
		if err != nil {
			return nil, err
		}
		st.vals = vals
		return st.prep.current().Locks, nil
	}
	norm, normOK := sql.Normalize(st.text)
	st.norm = norm
	if normOK && db.plans != nil {
		if e, ok := db.plans.Peek(db.planKey(norm)); ok {
			// Feedback: a plan whose estimates missed by the configured
			// ratio gets its statistics refreshed before this execution
			// acquires any locks; the refresh bumps the catalog version, so
			// resolveSelect recompiles against the new statistics instead of
			// serving the discredited plan.
			if e.NeedsRecompile() {
				db.refreshFeedbackStats(e)
			}
			return e.Locks, nil
		}
	}
	stmt, err := sql.Parse(st.text)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return nil, errors.New("systemr: transaction control needs a session: use DB.Conn (SQL) or DB.Begin (API)")
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.DropTableStmt,
		*sql.DropIndexStmt, *sql.UpdateStatsStmt:
		if explicit {
			return nil, errors.New("systemr: DDL and UPDATE STATISTICS cannot run inside a transaction (catalog changes are not undoable); commit first")
		}
	}
	st.parsed = stmt
	return compile.LockRequests(stmt, !db.cfg.DisableSnapshotReads), nil
}

// runBody runs the statement's body under its governor and transaction.
// A plan-cache hit's body is its SELECT; the catalog-version check happens
// here, under the locks (the shared catalog lock excludes DDL, pinning the
// version), so a plan that went stale between the peek and the acquire is
// recompiled, never executed.
func (db *DB) runBody(gov *governor.Budget, t *txn.Txn, st *statement) (err error) {
	defer contain(&err)
	switch {
	case st.prep != nil:
		return st.prep.exec(gov, t, st)
	case st.parsed == nil:
		st.res, err = db.execSelect(gov, t, st.norm, nil)
	default:
		st.res, err = db.execStmt(gov, t, st.norm, st.parsed)
	}
	return err
}

// contain is the panic-containment boundary, deferred by every frame that
// runs a plan for a caller: an internal panic becomes a *PanicError, handled
// like any statement failure, so the database stays usable and consistent.
func contain(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// newTxn creates a transaction over the engine's lock manager and disk,
// carrying the installed mutation fault hook. reg is its snapshot
// registration: an explicit transaction registers at Begin and reads under
// that one snapshot for its whole life (repeatable reads); an autocommitted
// statement passes nil and registers after its locks are granted.
func (db *DB) newTxn(reg *txn.Reg) *txn.Txn {
	t := txn.New(db.locks.Begin(), db.disk, reg)
	if f, ok := db.mutFault.Load().(txn.FaultFunc); ok && f != nil {
		t.SetFault(f)
	}
	return t
}

// abort rolls back a transaction that cannot go on — a deadlock victim, a
// lock timeout, or a write conflict (its snapshot is stale against a
// committed writer) — and returns err joined with any undo failure. An
// explicit transaction rolls back at once (its locks are what the rest of a
// deadlock cycle waits on) and stays Aborted until the session acknowledges
// with ROLLBACK; an autocommitted statement's transaction just ends.
func (db *DB) abort(t *txn.Txn, explicit bool, err error) error {
	if uerr := t.UndoAll(); uerr != nil {
		err = errors.Join(err, uerr)
	}
	if explicit {
		t.MarkAborted()
	}
	db.endTxn(t, explicit, !explicit)
	return err
}

// endTxn is the one end of every transaction: any undo has already run, so
// it finishes t (unless the engine aborted it), deregisters its snapshot,
// releases its locks, and counts it. Deregistration comes before lock
// release, so the registry's commit point stays inside the transaction's
// exclusive-lock window and snapshot order matches lock order. A committed
// writing transaction counts toward auto-vacuum; an autocommitted statement
// always "commits" (a failed one undid its own mutations).
func (db *DB) endTxn(t *txn.Txn, explicit, commit bool) {
	if t.State() == txn.Active {
		t.Finish()
	}
	db.txns.Finish(t.Reg())
	t.Locks.ReleaseAll()
	if explicit {
		db.activeTxns.Add(-1)
		if commit {
			db.metrics.txnCommits.Inc()
		} else {
			db.metrics.txnRollbacks.Inc()
		}
	}
	if commit && t.Mutations() > 0 {
		db.noteCommit()
	}
}
