package systemr

// Compiled statements. System R compiled a statement once and ran the
// resulting plan many times: "application programs are compiled once and run
// many times. The cost of optimization is amortized over many runs"
// (Conclusion). Prepare performs parsing, semantic analysis, and access path
// selection once, for a query or for the retrieval of an UPDATE or DELETE;
// each Run executes the stored plan.
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

	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/exec"
	"systemr/internal/sql"
	"systemr/internal/txn"
	"systemr/internal/value"
)

// Stmt is a compiled SELECT, UPDATE or DELETE statement. It is safe for
// concurrent use: the compiled plan is immutable, and recompilation after a
// catalog change swaps the current-plan pointer under a mutex.
type Stmt struct {
	db   *DB
	text string
	norm string
	lits []value.Value // the literals Lift lifted from a text without ?

	mu sync.Mutex
	cp *compile.CompiledPlan
}

// Prepare compiles a SELECT, UPDATE or DELETE statement: the optimizer runs
// once, now. The compiled plan is shared with (and revalidated through) the
// plan cache.
func (db *DB) Prepare(text string) (*Stmt, error) {
	// A text without ? shares the plans of its ad hoc runs: its literals
	// are lifted as theirs are, and each run binds them.
	st := statement{text: text}
	st.norm, st.vals, _ = sql.Lift(text)
	parsed, err := st.parse()
	if err != nil {
		return nil, err
	}
	// Compiling reads only the catalog: the statement's own locks, an
	// UPDATE's exclusive table lock among them, are each run's.
	held, err := db.locks.AcquireContext(context.Background(), catalogShared)
	if err != nil {
		return nil, fmt.Errorf("systemr: Prepare: %w", err)
	}
	defer held.Release()
	cp, _, err := db.resolvePlan(nil, st.norm, parsed, st.vals)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: text, norm: st.norm, lits: st.vals, cp: cp}, nil
}

// bind converts a run's arguments to its plan's, the values of its lifted
// literals: the host-variable values, or, for a text without ?, the
// literals lifted out of it.
func (s *Stmt) bind(args []any) ([]value.Value, error) {
	if s.lits == nil {
		return hostValues(args)
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("systemr: statement has 0 host variable(s), %d argument(s) supplied", len(args))
	}
	return s.lits, nil
}

// current returns the statement's current compiled plan.
func (s *Stmt) current() *compile.CompiledPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// Run executes the compiled plan (no parsing, no re-optimization unless the
// catalog changed), binding one value per '?' host variable in statement
// order. Accepted argument types: int, int64, float64, string, nil. A query
// returns its rows, an UPDATE or DELETE the rows it Affected.
func (s *Stmt) Run(args ...any) (*Result, error) {
	return s.RunContext(context.Background(), args...)
}

// RunContext is Run observing ctx: cancellation, deadlines, and the
// configured resource budgets abort execution as in ExecContext. The run
// reads under its own snapshot, registered once its locks are granted.
func (s *Stmt) RunContext(ctx context.Context, args ...any) (*Result, error) {
	st := statement{prep: s, args: args}
	if err := s.db.lifecycle(ctx, nil, &st); err != nil {
		return nil, err
	}
	return st.res, nil
}

// exec is a prepared run's body: revalidate the plan's catalog version
// under the statement's locks — recompiling after DDL or a statistics
// refresh — then run it, or open a cursor over it.
func (s *Stmt) exec(t *txn.Txn, st *statement) error {
	cp, _, err := s.db.resolvePlan(st.gov, s.norm, nil, s.lits)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cp = cp
	s.mu.Unlock()
	if st.cursor {
		c, err := exec.OpenQuery(s.db.runtime(st.gov, t.Snapshot()), cp.Query, st.vals)
		if err != nil {
			return err
		}
		st.rows = &Rows{db: s.db, st: st, cols: outNames(cp.Query), cursor: c, t: t}
		return nil
	}
	st.res, err = s.db.runCompiled(t, st, cp)
	return err
}

// Explain returns the statement's current compiled plan. A text whose
// literals were lifted may run a plan a sibling's literals compiled, so its
// estimates are priced at the statement's own literals (core.Cost), under
// the shared catalog lock. A plan gone stale, or a lock not granted, prints
// as compiled: Run recompiles the one and reports the other.
func (s *Stmt) Explain() string {
	cp := s.current()
	if s.lits == nil {
		return cp.Query.Explain()
	}
	held, err := s.db.locks.AcquireContext(context.Background(), catalogShared)
	defer held.Release()
	if err != nil || cp.Version != s.db.cat.Version() {
		return cp.Query.Explain(s.lits...)
	}
	return cp.Query.ExplainWith(core.Cost(cp.Query, s.db.OptimizerConfig(), s.lits), s.lits...)
}

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
// cursor's transaction — its table locks and its snapshot, with the vacuum
// horizon it pins — is held until Close.
type Rows struct {
	db     *DB
	st     *statement
	cols   []string
	cursor *exec.Cursor
	t      *txn.Txn
	closed bool
}

// Open begins streaming execution of the compiled plan of a query, binding
// one value per '?' host variable; an UPDATE or DELETE is refused. The
// caller must Close the cursor (or drain it) to release the statement's
// locks.
func (s *Stmt) Open(args ...any) (*Rows, error) {
	return s.OpenContext(context.Background(), args...)
}

// OpenContext is Open observing ctx for the whole cursor lifetime: a
// cancellation between Next calls aborts the next fetch. (StatementTimeout is
// not layered here — a cursor's pacing belongs to the application; pass a
// deadline ctx to bound it.) Like RunContext, it revalidates the plan's
// catalog version under the statement's locks, which are held until Close —
// so the plan stays valid for the cursor's whole lifetime. The cursor reads
// under one snapshot: rows committed (or vacuumed) while it is open are
// invisible to it.
func (s *Stmt) OpenContext(ctx context.Context, args ...any) (*Rows, error) {
	if s.current().DML {
		return nil, fmt.Errorf("systemr: Open needs a query; Run an UPDATE or DELETE: %s", s.text)
	}
	st := statement{prep: s, args: args, cursor: true}
	if err := s.db.lifecycle(ctx, nil, &st); err != nil {
		return nil, err
	}
	return st.rows, nil
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Next returns the next row as native Go values; ok reports whether a row
// was produced. The final Next (ok=false) releases the locks.
func (r *Rows) Next() (row []any, ok bool, err error) {
	raw, ok, err := r.fetch()
	if err != nil || !ok {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
		// Close has just published the cursor's partial stats as LastStats;
		// the governor error carries the same numbers.
		return nil, false, withStats(err, r.st.stats())
	}
	var out [1][]any
	nativeRows(out[:], []value.Row{raw})
	return out[0], true, nil
}

// fetch advances the cursor inside the panic-containment boundary: a panic
// in the plan fails the fetch, and Next closes the cursor like after any
// other failure.
func (r *Rows) fetch() (raw value.Row, ok bool, err error) {
	defer contain(&err)
	return r.cursor.Next()
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
	r.db.setLast(r.st.stats())
	r.db.endTxn(r.t, false, true)
	return err
}
