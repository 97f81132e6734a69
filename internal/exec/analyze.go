package exec

// EXPLAIN ANALYZE support: run a planned block and keep its instrumented
// operator trees, then render the optimizer's Table-1/Table-2 estimates next
// to the measured actuals, one operator per line, for the main block and
// then for each subquery block, whose tree ran once per evaluation. Page
// fetches and wall time are self-attributed: an operator's inclusive delta
// minus its children's. A block's fetch deltas exclude its subquery
// evaluations, so the fetches of all blocks' lines sum to the statement's;
// its wall time includes them.

import (
	"fmt"
	"strings"
	"time"

	"systemr/internal/plan"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Analysis is the outcome of an instrumented execution: the operator trees
// holding per-operator actuals — the main block's and, kept in its context,
// each subquery block's — and the statement's measured I/O totals.
type Analysis struct {
	Root Operator
	// IO is the statement's measured totals, from its own accumulator: the
	// quantities of COST = PAGE FETCHES + W*(RSI CALLS).
	IO storage.IOStatsSnapshot
	// Est, when set, prices the plan's nodes in place of their own
	// estimates: a cached plan re-costed at the statement's values.
	Est plan.Estimates
	// ctx is the finished run's main block, whose subs hold the subquery
	// blocks' trees and whose lits spell the statement's lifted literals.
	ctx *blockCtx
}

// RunQueryAnalyze is RunQuery keeping the instrumented operator trees for
// rendering: the Analysis reads the finished run's blocks. It is returned
// even when execution aborts (canceled, budget exceeded, storage fault),
// carrying the actuals up to the abort — nil only if the plan could not be
// built.
func RunQueryAnalyze(rt *Runtime, q *plan.Query, args []value.Value) ([]value.Row, *Stats, *Analysis, error) {
	rows, c, err := runBlock(rt, q, args)
	if c.root == nil {
		return rows, c.Stats(), nil, err
	}
	return rows, c.Stats(), &Analysis{Root: c.root, IO: c.stats.IO, ctx: &c.ctx}, err
}

// Format renders the annotated plan trees, each subquery block after its
// parent's. w is the optimizer's CPU weighting factor, used to collapse each
// node's estimated (pages, rsi) cost into the single COST number the
// paper's formula produces.
func (a *Analysis) Format(w float64) string {
	var b strings.Builder
	b.WriteString("QUERY BLOCK (main)\n")
	formatOp(&b, a.Root, 1, w, a.Est, a.ctx.lits)
	a.formatSubs(&b, a.ctx, w)
	fmt.Fprintf(&b, "statement: fetches=%d writes=%d rsi=%d cost=%.1f (W=%g)\n",
		a.IO.PageFetches, a.IO.PagesWritten, a.IO.RSICalls, a.IO.Cost(w), w)
	return b.String()
}

// formatSubs renders ctx's subquery blocks, each headed by its evaluation
// count, its root's Opens: the Section 6 same-value cache makes it smaller
// than the candidate-tuple count. Its operators' loops count evaluations as
// a nested-loop inner's count outer rows.
func (a *Analysis) formatSubs(b *strings.Builder, ctx *blockCtx, w float64) {
	for _, sp := range ctx.q.Subs {
		st := ctx.subs[sp.Sub]
		kind := "subquery"
		if sp.Sub.Correlated {
			kind = "correlated subquery"
		}
		times := "times"
		if st.root.stats.Opens == 1 {
			times = "time"
		}
		fmt.Fprintf(b, "QUERY BLOCK (%s #%d)  [evaluated %d %s]\n", kind, sp.Sub.ID, st.root.stats.Opens, times)
		formatOp(b, st.root, 1, w, a.Est, a.ctx.lits)
		a.formatSubs(b, &st.ctx, w)
	}
}

// formatOp writes one operator's estimate-vs-actual line and recurses.
func formatOp(b *strings.Builder, o Operator, depth int, w float64, est plan.Estimates, lits []value.Value) {
	e := est.Of(o.Plan())
	s := o.Stats()
	fetches := s.Fetches
	elapsed := s.Elapsed
	for _, k := range o.Children() {
		ks := k.Stats()
		fetches -= ks.Fetches
		elapsed -= ks.Elapsed
	}
	fmt.Fprintf(b, "%s%s  {est rows=%.1f cost=%.1f | act rows=%d",
		strings.Repeat("  ", depth), o.Plan().Label(lits...), e.Rows, e.Cost.Total(w), s.Rows)
	if s.Opens != 1 {
		fmt.Fprintf(b, " loops=%d", s.Opens)
	}
	fmt.Fprintf(b, " fetches=%d time=%s}", fetches, formatElapsed(elapsed))
	// The hash join reports its build side: the estimate its table was
	// pre-sized from against the rows (and bytes) actually buffered.
	if wrap, ok := o.(*op); ok {
		if hj, ok := wrap.impl.(*hashJoinOp); ok {
			fmt.Fprintf(b, " [build: est rows=%.1f act rows=%d mem=%dB]",
				hj.node.BuildRows, hj.buildRows, hj.buildBytes)
		}
	}
	b.WriteString("\n")
	for _, k := range o.Children() {
		formatOp(b, k, depth+1, w, est, lits)
	}
}

// formatElapsed rounds wall time for display; sub-microsecond work shows as
// 0s only when truly zero, otherwise at microsecond granularity.
func formatElapsed(d time.Duration) string {
	if d > time.Millisecond {
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(time.Microsecond).String()
}
