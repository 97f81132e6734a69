package exec

// The unified physical operator tree. Every plan node executes as one
// Operator with an OPEN / NEXTBATCH / CLOSE protocol: rows move between
// operators only in batches (a one-row batch is the paper's tuple-at-a-time
// NEXT). A single builder maps plan.Nodes to operators, and a shared
// instrumentation wrapper around every operator measures actual rows,
// attributed page fetches (statement-counter deltas around each call), and
// wall time — the per-operator feedback EXPLAIN ANALYZE reports against the
// optimizer's Table 1 / Table 2 estimates. The wrapper is also the single
// place the statement execution governor is consulted inside the executor:
// every batch crossing an operator boundary is a governor checkpoint (the
// RSS scans and the sorter keep their own interior checkpoints so even
// operators that examine many tuples per row returned abort promptly).

import (
	"fmt"
	"time"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// OpStats is one operator's measured execution: the actuals column of
// EXPLAIN ANALYZE. Fetches and Elapsed are inclusive of the operator's
// children (a child's NextBatch runs inside its parent's); self-attribution is
// inclusive minus the sum of the children, computed at rendering time.
// Fetches are deltas of the statement's own counter (with subquery
// evaluations excluded), so a concurrent statement's I/O never appears here.
type OpStats struct {
	// Opens counts Open calls — re-opens of a nested-loop inner make this
	// the join's loop count.
	Opens int64
	// Nexts counts amortized NEXT calls: one per row returned, plus one
	// per empty batch (the final end-of-input call).
	Nexts int64
	// Rows counts rows the operator returned.
	Rows int64
	// Fetches counts buffer-pool page fetches observed during the
	// operator's Open and NextBatch calls, children included.
	Fetches int64
	// Elapsed is wall time spent inside Open and NextBatch, children included.
	Elapsed time.Duration
}

// Operator is the executor's single physical operator interface. Open may be
// called again after Close to restart the operator under the current
// parameter bindings (how a nested-loop join rescans its inner relation);
// Close is idempotent and must release every resource on any exit path,
// including a partially failed Open. Stats accumulate across restarts.
type Operator interface {
	Open() error
	// NextBatch fills b with up to its capacity of rows, resetting it first;
	// a batch shorter than capacity is permitted mid-stream, and an empty
	// batch means end of input. The boundary instrumentation (governor tick,
	// OpStats, fetch deltas, wall time) is paid once per batch.
	NextBatch(b *Batch) error
	Close() error
	// Plan returns the plan node this operator executes, carrying the
	// optimizer's estimated cost and cardinality.
	Plan() plan.Node
	// Stats returns the actuals measured so far.
	Stats() OpStats
	Children() []Operator
}

// opImpl is a concrete operator body. Implementations fill batches of
// composite rows (b arrives empty) and leave instrumentation and the
// boundary governor check to the op wrapper.
type opImpl interface {
	open() error
	nextBatch(b *Batch) error
	close() error
}

// tidSource is implemented by the scan operators so DML can locate the
// stored tuples behind the rows an access path returns.
type tidSource interface {
	lastTID() storage.TID
}

// op wraps a concrete operator with the shared boundary: OpStats accounting
// and the statement governor checkpoint. It is the only Operator
// implementation in the package.
type op struct {
	ctx   *blockCtx
	node  plan.Node
	impl  opImpl
	kids  []*op
	stats OpStats
}

func (o *op) Plan() plan.Node { return o.node }

// Stats returns the operator's measured actuals.
func (o *op) Stats() OpStats { return o.stats }

func (o *op) Children() []Operator {
	out := make([]Operator, len(o.kids))
	for i, k := range o.kids {
		out[i] = k
	}
	return out
}

// Open (re)starts the operator: a full governor check, then the measured
// delegate call.
func (o *op) Open() error {
	if err := o.ctx.rt.Budget.Check(); err != nil {
		return err
	}
	start := time.Now()
	f0 := o.ctx.opFetchBase()
	err := o.impl.open()
	o.stats.Opens++
	o.stats.Fetches += o.ctx.opFetchBase() - f0
	o.stats.Elapsed += time.Since(start)
	return err
}

// NextBatch fills b with up to its capacity of rows, paying the boundary
// instrumentation once per batch. Every call is a governor checkpoint, so
// cancellation and budget violations surface at operator boundaries no
// matter which operator is doing the work.
func (o *op) NextBatch(b *Batch) error {
	if err := o.ctx.rt.Budget.Tick(); err != nil {
		return err
	}
	start := time.Now()
	f0 := o.ctx.opFetchBase()
	b.Reset()
	err := o.impl.nextBatch(b)
	// Preserve the Rows <= Nexts invariant: a batch of n rows counts as n
	// amortized NEXT calls; an empty batch is the final empty call.
	n := int64(b.Len())
	o.stats.Rows += n
	if n == 0 {
		o.stats.Nexts++
	} else {
		o.stats.Nexts += n
	}
	o.stats.Fetches += o.ctx.opFetchBase() - f0
	o.stats.Elapsed += time.Since(start)
	return err
}

func (o *op) Close() error { return o.impl.close() }

// newOp wraps impl for node with its child operators.
func (ctx *blockCtx) newOp(n plan.Node, impl opImpl, kids ...*op) *op {
	return &op{ctx: ctx, node: n, impl: impl, kids: kids}
}

// build constructs the operator for any plan node — the one builder behind
// queries, cursors, and DML tuple location.
func (ctx *blockCtx) build(n plan.Node) (*op, error) {
	switch x := n.(type) {
	case *plan.SegScan:
		return ctx.newOp(n, &segScanOp{ctx: ctx, node: x}), nil
	case *plan.IndexScan:
		return ctx.newOp(n, &indexScanOp{ctx: ctx, node: x}), nil
	case *plan.NLJoin:
		outer, err := ctx.build(x.Outer)
		if err != nil {
			return nil, err
		}
		inner, err := ctx.build(x.Inner)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &nlJoinOp{ctx: ctx, node: x, outer: outer, inner: inner}, outer, inner), nil
	case *plan.MergeJoin:
		outer, err := ctx.build(x.Outer)
		if err != nil {
			return nil, err
		}
		inner, err := ctx.build(x.Inner)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &mergeJoinOp{ctx: ctx, node: x, outer: outer, inner: inner}, outer, inner), nil
	case *plan.HashJoin:
		outer, err := ctx.build(x.Outer)
		if err != nil {
			return nil, err
		}
		inner, err := ctx.build(x.Inner)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &hashJoinOp{ctx: ctx, node: x, outer: outer, inner: inner}, outer, inner), nil
	case *plan.Sort:
		in, err := ctx.build(x.Input)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &sortOp{ctx: ctx, input: in, keys: x.Keys}, in), nil
	case *plan.Project:
		in, err := ctx.build(x.Input)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &projectOp{ctx: ctx, input: in, exprs: x.Exprs}, in), nil
	case *plan.GroupAgg:
		in, err := ctx.build(x.Input)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &groupAggOp{ctx: ctx, input: in, node: x}, in), nil
	case *plan.Distinct:
		if !producesOutput(x.Input) {
			return nil, fmt.Errorf("exec: DISTINCT over non-output node %T", x.Input)
		}
		in, err := ctx.build(x.Input)
		if err != nil {
			return nil, err
		}
		return ctx.newOp(n, &distinctOp{ctx: ctx, input: in}, in), nil
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// producesOutput reports whether n emits final output rows (single-slot
// composites) rather than relational composites.
func producesOutput(n plan.Node) bool {
	switch n.(type) {
	case *plan.Project, *plan.GroupAgg, *plan.Distinct:
		return true
	}
	return false
}

// buildRoot builds the block's whole operator tree, validating that the root
// produces output rows. It first builds each subquery block the same way,
// in a context that shares the statement's literals and counters; each
// evaluation re-opens that tree (see subquery.go).
func (ctx *blockCtx) buildRoot() (*op, error) {
	if !producesOutput(ctx.q.Root) {
		return nil, fmt.Errorf("exec: node %T cannot produce output rows", ctx.q.Root)
	}
	if len(ctx.q.Subs) > 0 {
		ctx.subs = make(map[*sem.Subquery]*subState, len(ctx.q.Subs))
	}
	for _, sp := range ctx.q.Subs {
		st := &subState{b: NewBatch(ctx.batchN()), ctx: blockCtx{rt: ctx.rt, q: sp.Query,
			params: make([]value.Value, sp.Query.NumParams), lits: ctx.lits, evals: ctx.evals, subFetches: ctx.subFetches}}
		ctx.subs[sp.Sub] = st
		var err error
		if st.root, err = st.ctx.buildRoot(); err != nil {
			return nil, err
		}
	}
	return ctx.build(ctx.q.Root)
}

// outRow unwraps a final output row from the single-slot composite in which
// the output-stage operators (projection, aggregation, duplicate
// elimination) hand it on, so they share the one Operator interface.
func outRow(c comp) value.Row { return c[0] }
