package systemr

// Compiled statements. System R compiled a statement once and ran the
// resulting plan many times: "application programs are compiled once and run
// many times. The cost of optimization is amortized over many runs"
// (Conclusion). Prepare performs parsing, semantic analysis, and access path
// selection once; each Run executes the stored plan.
//
// As in System R, a prepared plan embeds the catalog state of compile time —
// and, as in System R, it is invalidated and recompiled when a dependency
// changes: each Run revalidates the plan's catalog version under the
// statement's locks, and a stale plan (DDL or UPDATE STATISTICS since
// compile) is transparently recompiled from the statement's normalized text.
// The caller never re-Prepares and never executes a stale plan.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"systemr/internal/compile"
	"systemr/internal/exec"
	"systemr/internal/governor"
	"systemr/internal/lock"
	"systemr/internal/sql"
	"systemr/internal/txn"
	"systemr/internal/value"
)

// Stmt is a compiled SELECT statement. It is safe for concurrent use: the
// compiled plan is immutable, and recompilation after a catalog change swaps
// the current-plan pointer under a mutex.
type Stmt struct {
	db   *DB
	text string
	norm string

	mu sync.Mutex
	cp *compile.CompiledPlan
}

// Prepare compiles a SELECT statement: the optimizer runs once, now. When the
// plan cache is enabled the compiled plan is shared with (and revalidated
// through) the cache.
func (db *DB) Prepare(text string) (*Stmt, error) {
	parsed, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("systemr: Prepare supports SELECT statements, got %T", parsed)
	}
	norm, _ := sql.Normalize(text)
	held := db.locks.Acquire(compile.LockRequests(parsed, !db.cfg.DisableSnapshotReads))
	defer held.Release()
	cp, _, err := db.resolveSelect(nil, norm, "", sel)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: text, norm: norm, cp: cp}, nil
}

// current returns the statement's current compiled plan.
func (s *Stmt) current() *compile.CompiledPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// planFor returns a catalog-current plan for this statement, recompiling if
// DDL or a statistics refresh has moved the catalog version since the held
// plan was compiled. Must be called with the statement's locks held (the
// shared catalog lock pins the version through execution). vals are the
// run's host-variable bindings: with the cache enabled they select the cache
// slot, so runs with different binding types keep distinct entries.
func (s *Stmt) planFor(gov *governor.Budget, vals []value.Value) (*compile.CompiledPlan, error) {
	if s.db.plans == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.cp.Version != s.db.cat.Version() {
			cp, err := s.db.compiler.CompileSelectText(gov, s.norm)
			if err != nil {
				return nil, wrapGovErr(err, ExecStats{})
			}
			s.cp = cp
		}
		return s.cp, nil
	}
	cp, _, err := s.db.resolveSelect(gov, s.norm, compile.ArgSig(vals), nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.cp = cp
	s.mu.Unlock()
	return cp, nil
}

// Run executes the compiled plan (no parsing, no re-optimization unless the
// catalog changed), binding one value per '?' host variable in statement
// order. Accepted argument types: int, int64, float64, string, nil.
func (s *Stmt) Run(args ...any) (*Result, error) {
	return s.RunContext(context.Background(), args...)
}

// RunContext is Run observing ctx: cancellation, deadlines, and the
// configured resource budgets abort execution as in ExecContext.
func (s *Stmt) RunContext(ctx context.Context, args ...any) (res *Result, err error) {
	start := time.Now()
	defer func() { s.db.observeStatement(start, err) }()
	vals, err := hostValues(args)
	if err != nil {
		return nil, err
	}
	if s.db.cfg.StatementTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.db.cfg.StatementTimeout)
		defer cancel()
	}
	held, err := s.db.locks.AcquireContext(ctx, s.current().Locks)
	if err != nil {
		return nil, lockErr(err)
	}
	defer held.Release()
	// Register the run as a reader: it captures a statement snapshot and
	// pins the vacuum horizon for its duration.
	reg := s.db.txns.Begin()
	defer s.db.txns.Finish(reg)
	gov := s.db.newGovernor(ctx)
	cp, err := s.planFor(gov, vals)
	if err != nil {
		return nil, err
	}
	rows, stats, err := exec.RunQueryArgs(s.db.runtime(gov, reg.Snap), cp.Query, vals)
	es := execStatsFrom(stats)
	s.db.setLast(es)
	if err != nil {
		return nil, wrapGovErr(err, es)
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = toNative(r)
	}
	cols := cp.Query.OutNames
	if cols == nil {
		cols = []string{}
	}
	return &Result{Columns: cols, Rows: out}, nil
}

// Explain returns the statement's current compiled plan.
func (s *Stmt) Explain() string { return s.current().Query.Explain() }

// Text returns the original statement text.
func (s *Stmt) Text() string { return s.text }

// Version returns the catalog version the statement's current plan was
// compiled under.
func (s *Stmt) Version() uint64 { return s.current().Version }

// hostValues converts Go arguments to engine values.
func hostValues(args []any) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case nil:
			out[i] = value.Null()
		case int:
			out[i] = value.NewInt(int64(x))
		case int64:
			out[i] = value.NewInt(x)
		case float64:
			out[i] = value.NewFloat(x)
		case string:
			out[i] = value.NewString(x)
		default:
			return nil, fmt.Errorf("systemr: unsupported host argument %d of type %T", i+1, a)
		}
	}
	return out, nil
}

// Rows is a streaming result cursor over a compiled statement — the
// tuple-at-a-time interface application programs used in System R. The
// statement's table locks are held until Close.
type Rows struct {
	db     *DB
	cols   []string
	cursor *exec.Cursor
	held   *lock.Held
	reg    *txn.Reg
	closed bool
}

// Open begins streaming execution of the compiled plan, binding one value
// per '?' host variable. The caller must Close the cursor (or drain it) to
// release the statement's locks.
func (s *Stmt) Open(args ...any) (*Rows, error) {
	return s.OpenContext(context.Background(), args...)
}

// OpenContext is Open observing ctx for the whole cursor lifetime: a
// cancellation between Next calls aborts the next fetch. (StatementTimeout is
// not layered here — a cursor's pacing belongs to the application; pass a
// deadline ctx to bound it.) Like RunContext, it revalidates the plan's
// catalog version under the statement's locks, which are held until Close —
// so the plan stays valid for the cursor's whole lifetime.
func (s *Stmt) OpenContext(ctx context.Context, args ...any) (*Rows, error) {
	vals, err := hostValues(args)
	if err != nil {
		return nil, err
	}
	held, err := s.db.locks.AcquireContext(ctx, s.current().Locks)
	if err != nil {
		return nil, lockErr(err)
	}
	// The cursor reads under one snapshot, captured here and held — with
	// the vacuum horizon it pins — until Close: rows committed (or
	// vacuumed) while the cursor is open are invisible to it.
	reg := s.db.txns.Begin()
	gov := s.db.newGovernor(ctx)
	cp, err := s.planFor(gov, vals)
	if err != nil {
		s.db.txns.Finish(reg)
		held.Release()
		return nil, err
	}
	cur, err := exec.OpenQueryArgs(s.db.runtime(gov, reg.Snap), cp.Query, vals)
	if err != nil {
		s.db.txns.Finish(reg)
		held.Release()
		return nil, wrapGovErr(err, ExecStats{})
	}
	cols := cp.Query.OutNames
	if cols == nil {
		cols = []string{}
	}
	return &Rows{db: s.db, cols: cols, cursor: cur, held: held, reg: reg}, nil
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Next returns the next row as native Go values; ok reports whether a row
// was produced. The final Next (ok=false) releases the locks.
func (r *Rows) Next() (row []any, ok bool, err error) {
	raw, ok, err := r.cursor.Next()
	if err != nil || !ok {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
		// Close has just published the cursor's partial stats as LastStats;
		// the governor error carries the same numbers.
		return nil, false, wrapGovErr(err, execStatsFrom(r.cursor.Stats()))
	}
	return toNative(raw), true, nil
}

// Close releases the cursor and its locks; safe to call repeatedly. It
// returns the first error seen while closing the plan's scans, once. Closing
// — whether after draining or mid-stream — publishes the cursor's measured
// statistics (rows streamed so far, fetches, RSI calls) as LastStats exactly
// once: a second Close is a no-op returning nil, so it cannot clobber
// LastStats published by statements run in between.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.cursor.Close()
	if st := r.cursor.Stats(); st != nil {
		r.db.setLast(execStatsFrom(st))
	}
	r.db.txns.Finish(r.reg)
	r.held.Release()
	return err
}
