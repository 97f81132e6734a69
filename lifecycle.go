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
	"slices"
	"time"

	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/exec"
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

	norm   string        // the normalized text, with literals lifted by sql.Lift; "" for an INSERT
	parsed sql.Statement // nil on a plan-cache hit and for prepared runs
	// vals are a prepared run's host-variable values, or the literals
	// sql.Lift lifted out of the text: either way, the plan's arguments.
	vals []value.Value
	res  *Result
	rows *Rows

	// The measurements: gov's ledger holds the I/O; run (or a cursor's
	// own) the plan's rows — result rows, or the targets a DELETE or UPDATE
	// located — and subquery evaluations; nrows the rows an INSERT wrote.
	gov   *governor.Budget
	run   *exec.Stats
	nrows int
}

// stats reads the statement's measurements: its I/O from the governor's
// ledger, which every runtime of the statement counts into, and the rows
// and subquery evaluations of its plan's run, or the rows its INSERT wrote.
func (st *statement) stats() ExecStats {
	io := st.gov.IO().Snapshot()
	s := ExecStats{
		PageFetches:  io.PageFetches,
		PagesWritten: io.PagesWritten,
		LogicalReads: io.LogicalReads,
		RSICalls:     io.RSICalls,
		Rows:         st.nrows,
	}
	run := st.run
	if st.rows != nil {
		run = st.rows.cursor.Stats()
	}
	if run != nil {
		s.Rows, s.SubqueryEvals = run.Rows, run.SubqueryEvals
	}
	return s
}

// lifecycle runs one statement, autocommitted (cur == nil: an ephemeral
// transaction scoped to the statement, or to a cursor's life) or inside the
// explicit transaction cur, whose locks and undo log accumulate across
// statements. In order, it:
//
//  1. applies StatementTimeout (a cursor is exempt: the application paces it)
//     and creates the governor, whose ledger measures the statement;
//  2. refuses an explicit transaction that was aborted or has ended;
//  3. derives the statement's lock set and acquires it;
//  4. on a lock failure, aborts;
//  5. registers an autocommitted statement's snapshot only after the grant,
//     so a writer that waited behind a committing transaction reads its
//     commit instead of conflicting with it (an explicit transaction keeps
//     its BEGIN-time snapshot: repeatable reads, first-updater-wins);
//  6. marks the undo log and contains panics;
//  7. runs the body;
//  8. aborts on a write conflict, else undoes a failure back to the mark;
//  9. ends an autocommitted transaction, unless a cursor keeps it;
//  10. on every return, publishes the statement's stats (see publish).
func (db *DB) lifecycle(ctx context.Context, cur *txn.Txn, st *statement) (err error) {
	start := time.Now()
	if db.cfg.StatementTimeout > 0 && !st.cursor {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.cfg.StatementTimeout)
		defer cancel()
	}
	st.gov = db.newGovernor(ctx)
	defer func() { err = db.publish(start, st, err) }()
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
	err = db.runBody(cur, st)
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

// catalogShared is the shared catalog lock, which pins the catalog version:
// a transaction holds it from BEGIN, and Prepare, DumpSQL, PlanSelect and
// Tables hold it alone. A single request is already a canonical lock set.
var catalogShared = []lock.Request{{Table: compile.CatalogLock, Mode: lock.Shared}}

// lockSet derives the lock set a statement runs under: a prepared
// statement's from its current plan, a cached statement's from the peeked
// plan-cache entry, anything else's from its parse.
func (db *DB) lockSet(st *statement, explicit bool) ([]lock.Request, error) {
	if st.prep != nil {
		vals, err := st.prep.bind(st.args)
		if err != nil {
			return nil, err
		}
		st.vals = vals
		return st.prep.current().Locks, nil
	}
	// INSERT is never compiled, so no plan-cache entry can serve it: its
	// text, often one long VALUES list, is lexed once, by the parse.
	if sql.LeadingKeyword(st.text) != "INSERT" {
		norm, lits, normOK := sql.Lift(st.text)
		st.norm, st.vals = norm, lits
		if normOK {
			if locks, ok := db.cachedLocks(norm, lits); ok {
				return locks, nil
			}
		}
	}
	stmt, err := st.parse()
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return nil, errors.New("systemr: transaction control needs a session: use DB.Conn (SQL) or DB.Begin (API)")
	}
	reqs := compile.LockRequests(stmt, true)
	// A statement that changes the catalog locks it exclusively.
	if explicit && slices.Contains(reqs, lock.Request{Table: compile.CatalogLock, Mode: lock.Exclusive}) {
		return nil, errors.New("systemr: DDL and UPDATE STATISTICS cannot run inside a transaction (catalog changes are not undoable); commit first")
	}
	st.parsed = stmt
	return reqs, nil
}

// cachedLocks returns the lock set of a cached statement: its plan's, or for
// a lifted text its family's, which the lifted text alone decides.
func (db *DB) cachedLocks(norm string, lits []value.Value) ([]lock.Request, bool) {
	if lits == nil {
		e, ok := db.plans.Peek(norm)
		if !ok {
			return nil, false
		}
		return e.Locks, true
	}
	e, _, ok := db.plans.Family(compile.Key(norm, compile.ArgSig(lits)))
	if !ok {
		return nil, false
	}
	return e.Locks, true
}

// parse parses the statement's text: the lifted one when sql.Lift lifted
// literals, so compilation sees a host variable where each stood. A lifted
// text the parser rejects is not lifted after all: the original is parsed,
// and its error reported.
func (st *statement) parse() (sql.Statement, error) {
	if st.vals != nil {
		if stmt, err := sql.Parse(st.norm); err == nil {
			return stmt, nil
		}
		st.norm, _ = sql.Normalize(st.text)
		st.vals = nil
	}
	return sql.Parse(st.text)
}

// publish ends the statement's measurement, once, on every return from
// lifecycle: it sets LastStats and the systemr_statement_* counters from
// st.stats() and counts the statement in the metrics. A governor abort's
// error becomes a *StatementError carrying the same stats. A cursor that
// stays open publishes at Rows.Close instead, where its statement ends.
func (db *DB) publish(start time.Time, st *statement, err error) error {
	if !st.cursor || err != nil {
		s := st.stats()
		db.setLast(s)
		err = withStats(err, s)
	}
	db.observeStatement(start, err)
	return err
}

// setLast records the statement's measured statistics (including the partial
// cost of an aborted statement).
func (db *DB) setLast(s ExecStats) {
	db.mu.Lock()
	db.last = s
	db.mu.Unlock()
	m := db.metrics
	m.stmtCost.Add(s.Cost(core.DefaultW))
	m.stmtFetches.Add(float64(s.PageFetches + s.PagesWritten))
	m.stmtRSI.Add(float64(s.RSICalls))
	m.stmtRows.Add(float64(s.Rows))
}

// withStats attaches a statement's stats to its error: a *StatementError
// the lifecycle built gets them, a governor abort (cancellation, deadline,
// budget) is wrapped in one, and any other error passes through.
func withStats(err error, s ExecStats) error {
	var se *StatementError
	if errors.As(err, &se) {
		se.Stats = s
		return err
	}
	if errors.Is(err, governor.ErrCanceled) || errors.Is(err, governor.ErrBudgetExceeded) {
		return &StatementError{Err: err, Stats: s}
	}
	return err
}

// runBody runs the statement's body under its governor and transaction.
// A plan-cache hit's body is its plan, a query or a DELETE or UPDATE; the
// catalog-version check happens here, under the locks (the shared catalog
// lock excludes DDL, pinning the version), so a plan that went stale
// between the peek and the acquire is recompiled, never executed.
func (db *DB) runBody(t *txn.Txn, st *statement) (err error) {
	defer contain(&err)
	if st.prep != nil {
		return st.prep.exec(t, st)
	}
	st.res, err = db.execStmt(t, st)
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
