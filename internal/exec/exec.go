package exec

import (
	"errors"
	"fmt"
	"slices"

	"systemr/internal/governor"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Budget is the statement execution governor's per-statement budget
// (cancellation, deadline, rows scanned, page fetches). See
// internal/governor.
type Budget = governor.Budget

// Runtime carries one statement's execution environment: the buffer pool
// through which all page accesses flow, the simulated disk for temporary
// lists, the statement's governor budget (nil = ungoverned, e.g. experiment
// drivers), and the statement's own I/O accumulator. A Runtime belongs to
// the single statement executing through it.
type Runtime struct {
	Pool   *storage.BufferPool
	Disk   *storage.Disk
	Budget *Budget
	// IO is the statement's own I/O accumulator: every page access and RSI
	// call of this statement is counted into it (in addition to the pool's
	// DB-global aggregate), so PAGE FETCHES and RSI CALLS are measured
	// per-statement — exact even under concurrent statements. Nil is allowed
	// and replaced with a fresh accumulator on first use.
	IO *storage.IOStats

	// BatchSize is the target rows per NextBatch call (0 or negative =
	// DefaultBatchSize). It never affects plan choice — only how many rows
	// cross each instrumented operator boundary per call.
	BatchSize int
	// OnBatch, when non-nil, observes the size of every batch the block
	// driver consumes from the root operator (metrics hook).
	OnBatch func(rows int)

	// Snap is the MVCC snapshot every scan in this statement reads under:
	// only versions visible to it cross the RSS interface. Nil admits every
	// version without a delete mark, another transaction's uncommitted
	// insert included: it is for callers that exclude concurrent writers.
	Snap *storage.Snapshot
}

// ensureIO guarantees the runtime carries a statement accumulator, creating
// a fresh one for callers (tests, experiment drivers) that did not supply
// one.
func (rt *Runtime) ensureIO() *storage.IOStats {
	if rt.IO == nil {
		rt.IO = &storage.IOStats{}
	}
	return rt.IO
}

// Stats summarizes one statement's measured execution.
type Stats struct {
	IO            storage.IOStatsSnapshot
	SubqueryEvals int
	Rows          int
}

// RunQuery executes a planned query block and returns the output rows, with
// the values of its lifted literals bound positionally from args: the
// program-supplied values of its host variables, or the literals sql.Lift
// lifted out of its text (nil for a plan with neither).
func RunQuery(rt *Runtime, q *plan.Query, args []value.Value) ([]value.Row, *Stats, error) {
	rows, stats, _, err := runQuery(rt, q, args)
	return rows, stats, err
}

// runQuery is the shared body of RunQuery and RunQueryAnalyze: execute
// the block and return the rows, the statement stats, and the block context
// whose operator tree now holds the per-operator actuals.
func runQuery(rt *Runtime, q *plan.Query, args []value.Value) ([]value.Row, *Stats, *blockCtx, error) {
	before := rt.ensureIO().Snapshot()
	evals := 0
	mkStats := func(rows int) *Stats {
		after := rt.IO.Snapshot()
		return &Stats{IO: after.Sub(before), SubqueryEvals: evals, Rows: rows}
	}
	ctx := newBlockCtx(rt, q, &evals)
	if err := bindHostArgs(ctx, q, args); err != nil {
		return nil, mkStats(0), ctx, err
	}
	rows, err := ctx.run()
	if err != nil {
		// Stats are still returned so aborted statements (canceled, budget
		// exceeded, storage fault) report the work done up to the abort.
		return nil, mkStats(0), ctx, err
	}
	return rows, mkStats(len(rows)), ctx, nil
}

// bindHostArgs checks the argument count against the block's lifted
// literals — its host variables, or the literals sql.Lift lifted out of its
// text — and makes args their values.
func bindHostArgs(ctx *blockCtx, q *plan.Query, args []value.Value) error {
	if n := q.Block.Lifted; len(args) != n {
		return fmt.Errorf("exec: statement has %d host variable(s), %d argument(s) supplied", n, len(args))
	}
	ctx.lits = args
	return nil
}

// blockCtx is the runtime state of one executing query block instance. It
// fills the 144-byte allocation size class exactly; TestScanOpsFitSizeClass
// pins it.
type blockCtx struct {
	rt      *Runtime
	q       *plan.Query
	params  []value.Value
	lits    []value.Value               // the statement's arguments, read by lifted Consts
	subs    map[*sem.Subquery]*subState // nil when the plan has no subqueries
	aggVals []value.Value
	evals   *int // shared subquery-evaluation counter
	// subFetches tracks, across the whole statement, the page fetches spent
	// inside subquery evaluations. Operator instrumentation deltas
	// (fetchCount - subFetches), so a correlated subquery re-evaluated in the
	// middle of an outer operator's Next is attributed to its own query
	// block, not double-counted against the operator. Shared (like evals)
	// between a block and its subquery blocks.
	subFetches *int64
	root       *op // the block's operator tree, kept for EXPLAIN ANALYZE
	// strs is the arena the block's scans carve decoded VARCHAR values
	// from: one chunk serves many rows, and a row kept past its batch keeps
	// its strings (see storage.Strings).
	strs storage.Strings
}

func newBlockCtx(rt *Runtime, q *plan.Query, evals *int) *blockCtx {
	rt.ensureIO()
	ctx := &blockCtx{
		rt:         rt,
		q:          q,
		params:     make([]value.Value, q.NumParams),
		evals:      evals,
		subFetches: new(int64),
	}
	if len(q.Subs) > 0 {
		ctx.subs = make(map[*sem.Subquery]*subState, len(q.Subs))
		for _, sp := range q.Subs {
			ctx.subs[sp.Sub] = &subState{sp: sp}
		}
	}
	return ctx
}

// batchN is the target rows per NextBatch: Runtime.BatchSize, or
// DefaultBatchSize when that is not positive.
func (ctx *blockCtx) batchN() int {
	if n := ctx.rt.BatchSize; n > 0 {
		return n
	}
	return DefaultBatchSize
}

// fetchCount reads the statement's page-fetch counter — this statement's
// fetches only, so attribution stays exact under concurrent statements.
func (ctx *blockCtx) fetchCount() int64 { return ctx.rt.IO.FetchCount() }

// opFetchBase is the counter operator instrumentation deltas: the
// statement's fetches minus those spent inside subquery evaluations (which
// are attributed to the subquery's own block).
func (ctx *blockCtx) opFetchBase() int64 { return ctx.fetchCount() - *ctx.subFetches }

// run drives the block's operator tree to completion. The close is deferred
// before open so that every exit path — including errors mid-open and panics
// — releases the plan's scans; close errors surface unless an earlier error
// is already being returned.
func (ctx *blockCtx) run() (rows []value.Row, err error) {
	root, err := ctx.buildRoot()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := root.Close(); cerr != nil && err == nil {
			rows, err = nil, cerr
		}
	}()
	if err := root.Open(); err != nil {
		return nil, err
	}
	// The root's instrumented boundary is paid once per batch.
	b := NewBatch(ctx.batchN())
	for {
		if err := root.NextBatch(b); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return rows, nil
		}
		if f := ctx.rt.OnBatch; f != nil {
			f(b.Len())
		}
		rows = slices.Grow(rows, b.Len())
		for _, c := range b.rows {
			rows = append(rows, outRow(c))
		}
	}
}

func (ctx *blockCtx) numRels() int { return len(ctx.q.Block.Rels) }

// applyResidual evaluates the residual predicates attached to a node.
func (ctx *blockCtx) applyResidual(c comp, exprs []sem.Expr) (bool, error) {
	for _, e := range exprs {
		ok, err := ctx.evalBool(c, e)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Cursor streams a planned query's output rows one at a time — the
// tuple-at-a-time host-language interface the paper's Section 2 describes
// (generated code returning tuples to PL/I or COBOL programs). Each Next
// drives the root with a one-row batch, so every cursor fetch crosses the
// root's instrumented, governor-checked boundary exactly once while the
// operators below it still exchange full batches. Stats are finalized when
// the cursor closes or drains.
type Cursor struct {
	rt     *Runtime
	root   *op
	one    *Batch
	before storage.IOStatsSnapshot
	evals  int
	rows   int
	done   bool
	stats  *Stats
}

// OpenQuery begins streaming execution of a planned block with its lifted
// literals' values bound from args, as in RunQuery. An open that fails or
// panics releases any scans the plan managed to open first.
func OpenQuery(rt *Runtime, q *plan.Query, args []value.Value) (_ *Cursor, err error) {
	c := &Cursor{rt: rt, before: rt.ensureIO().Snapshot()}
	ctx := newBlockCtx(rt, q, &c.evals)
	if err := bindHostArgs(ctx, q, args); err != nil {
		return nil, err
	}
	root, err := ctx.buildRoot()
	if err != nil {
		return nil, err
	}
	defer func() {
		// Release partially-opened scans (e.g. a hash join's build input);
		// a close failure rides along rather than vanishing.
		if c.root == nil {
			if cerr := root.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()
	if err := root.Open(); err != nil {
		return nil, err
	}
	c.root = root
	c.one = NewBatch(1)
	return c, nil
}

// Next returns the next output row; ok is false at end of results. An error
// finishes the cursor (scans released); at end of results a close error, if
// any, is surfaced in the final call.
func (c *Cursor) Next() (value.Row, bool, error) {
	if c.done {
		return nil, false, nil
	}
	if err := c.root.NextBatch(c.one); err != nil {
		c.finish()
		return nil, false, err
	}
	if c.one.Len() == 0 {
		return nil, false, c.finish()
	}
	c.rows++
	return outRow(c.one.Row(0)), true, nil
}

// Close releases the cursor; safe to call at any point and idempotent. It
// returns the underlying close error the first time.
func (c *Cursor) Close() error {
	if !c.done {
		return c.finish()
	}
	return nil
}

func (c *Cursor) finish() error {
	c.done = true
	err := c.root.Close()
	after := c.rt.IO.Snapshot()
	c.stats = &Stats{IO: after.Sub(c.before), SubqueryEvals: c.evals, Rows: c.rows}
	return err
}

// Stats returns the measured execution statistics; valid after the cursor
// has drained or closed, nil before.
func (c *Cursor) Stats() *Stats { return c.stats }
