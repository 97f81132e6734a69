package exec

// The one driver. Every run of a plan — a query, a cursor, EXPLAIN ANALYZE
// and DML tuple location — goes through a Cursor: open builds the block's
// operator tree, with one tree for each subquery block beneath it (see
// subquery.go), binds its arguments and opens it (finishing on a failed
// open or a panic); the caller then steps it a row at a time (Next) or
// drains it a batch at a time (drain); finish closes the tree and sets the
// run's Stats, once.

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
	// OnBatch, when non-nil, observes the size of every root batch a drain
	// consumes — queries' and subqueries', never a cursor's (metrics hook).
	OnBatch func(rows int)

	// Snap is the MVCC snapshot every scan in this statement reads under:
	// only versions visible to it cross the RSS interface. Nil admits every
	// version without a delete mark, another transaction's uncommitted
	// insert included: it is for callers that exclude concurrent writers.
	Snap *storage.Snapshot
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
// lifted out of its text (nil for a plan with neither). An aborted run
// (canceled, budget exceeded, storage fault) reports its work so far.
func RunQuery(rt *Runtime, q *plan.Query, args []value.Value) ([]value.Row, *Stats, error) {
	rows, c, err := runBlock(rt, q, args)
	return rows, c.Stats(), err
}

// runBlock opens q's block and drains it, returning the finished cursor:
// how RunQuery and RunQueryAnalyze run a block. The cursor finishes on
// every exit, a panic included.
func runBlock(rt *Runtime, q *plan.Query, args []value.Value) (rows []value.Row, c *Cursor, err error) {
	if c, err = open(rt, q, args, 0); err != nil {
		return nil, c, err
	}
	defer func() {
		if !c.done {
			c.finish() // a panic: release the plan's scans on the way out
		}
	}()
	err = c.ctx.drain(c.root, c.b, func(out []comp) {
		rows = slices.Grow(rows, len(out))
		for _, r := range out {
			rows = append(rows, outRow(r))
		}
	})
	if err != nil {
		c.finish()
		return nil, c, err
	}
	c.stats.Rows = len(rows)
	return rows, c, c.finish()
}

// drain fills b from root to the end of its input, handing each batch's
// rows to each and reporting its size to Runtime.OnBatch: how a block run
// and a subquery evaluation consume their roots.
func (ctx *blockCtx) drain(root *op, b *Batch, each func([]comp)) error {
	for {
		if err := root.NextBatch(b); err != nil || b.Len() == 0 {
			return err
		}
		if f := ctx.rt.OnBatch; f != nil {
			f(b.Len())
		}
		each(b.rows)
	}
}

// blockCtx is the runtime state of one executing query block instance,
// embedded in the Cursor that runs it, or in a subquery block's subState;
// TestScanOpsFitSizeClass pins it and the Cursor to their allocation size
// classes.
type blockCtx struct {
	rt      *Runtime
	q       *plan.Query
	params  []value.Value
	lits    []value.Value               // the statement's arguments, read by lifted Consts
	subs    map[*sem.Subquery]*subState // nil when the plan has no subqueries
	aggVals []value.Value
	evals   *int // the statement's subquery-evaluation counter
	// subFetches tracks, across the whole statement, the page fetches spent
	// inside subquery evaluations. Operator instrumentation deltas
	// (fetchCount - subFetches), so a correlated subquery re-evaluated in the
	// middle of an outer operator's Next is attributed to its own query
	// block, not double-counted against the operator. Shared (like evals)
	// by every block of the statement.
	subFetches *int64
	// strs is the arena the block's scans carve decoded VARCHAR values
	// from: one chunk serves many rows, and a row kept past its batch keeps
	// its strings (see storage.Strings).
	strs storage.Strings
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

// Cursor runs one planned block (see the file comment). Stepped through
// Next — the tuple-at-a-time host-language interface of the paper's Section
// 2 — it drives the root with a one-row batch, so every fetch crosses the
// root's instrumented, governor-checked boundary once while the operators
// below still exchange full batches.
type Cursor struct {
	ctx  blockCtx
	root *op
	b    *Batch // the root's batch; nil until the tree is open
	done bool
	// stats counts rows and subquery evaluations as they happen; IO holds
	// the statement's counters at the start until finish sets the delta.
	stats      Stats
	subFetches int64
}

// open readies a cursor over q's block under rt, binding args as the
// values of its lifted literals, builds its operator tree and opens it,
// with root batches aiming at rootN rows (0: the block's batch size). A
// failed or panicking open finishes the cursor, releasing the scans it
// opened; a failed one returns it, Stats set, with the error.
func open(rt *Runtime, q *plan.Query, args []value.Value, rootN int) (c *Cursor, err error) {
	if rt.IO == nil {
		rt.IO = &storage.IOStats{} // callers such as tests may leave it unset
	}
	c = &Cursor{stats: Stats{IO: rt.IO.Snapshot()}}
	c.ctx = blockCtx{rt: rt, q: q, params: make([]value.Value, q.NumParams), lits: args,
		evals: &c.stats.SubqueryEvals, subFetches: &c.subFetches}
	defer func() {
		if c.b == nil {
			err = errors.Join(err, c.finish())
		}
	}()
	if n := q.Block.Lifted; len(args) != n {
		return c, fmt.Errorf("exec: statement has %d host variable(s), %d argument(s) supplied", n, len(args))
	}
	if c.root, err = c.ctx.buildRoot(); err != nil {
		return c, err
	}
	if err := c.root.Open(); err != nil {
		return c, err
	}
	if rootN == 0 {
		rootN = c.ctx.batchN()
	}
	c.b = NewBatch(rootN)
	return c, nil
}

// OpenQuery begins streaming execution of a planned block with its lifted
// literals' values bound from args, as in RunQuery.
func OpenQuery(rt *Runtime, q *plan.Query, args []value.Value) (*Cursor, error) {
	c, err := open(rt, q, args, 1)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Next returns the next output row; ok is false at end of results. An error
// finishes the cursor (scans released); at end of results a close error, if
// any, is surfaced in the final call.
func (c *Cursor) Next() (value.Row, bool, error) {
	if c.done {
		return nil, false, nil
	}
	if err := c.root.NextBatch(c.b); err != nil {
		c.finish()
		return nil, false, err
	}
	if c.b.Len() == 0 {
		return nil, false, c.finish()
	}
	c.stats.Rows++
	return outRow(c.b.Row(0)), true, nil
}

// Close releases the cursor; safe to call at any point and idempotent. It
// returns the underlying close error the first time.
func (c *Cursor) Close() error {
	if !c.done {
		return c.finish()
	}
	return nil
}

// finish closes the tree, if one was built, and sets the run's I/O: the one
// place a run's Stats become final.
func (c *Cursor) finish() error {
	c.done = true
	var err error
	if c.root != nil {
		err = c.root.Close()
	}
	c.stats.IO = c.ctx.rt.IO.Snapshot().Sub(c.stats.IO)
	return err
}

// Stats returns the measured execution statistics; valid once the cursor
// has finished, nil before. They live in the cursor, which they keep alive.
func (c *Cursor) Stats() *Stats {
	if !c.done {
		return nil
	}
	return &c.stats
}
