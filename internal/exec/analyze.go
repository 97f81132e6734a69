package exec

// EXPLAIN ANALYZE support: run a planned block and keep its instrumented
// operator tree, then render the optimizer's Table-1/Table-2 estimates next
// to the measured actuals, one operator per line. Page fetches and wall time
// are self-attributed (an operator's inclusive delta minus its children's),
// so the numbers in the tree sum to the statement totals.

import (
	"fmt"
	"strings"
	"time"

	"systemr/internal/plan"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Analysis is the outcome of an instrumented execution: the plan, the
// operator tree holding per-operator actuals, how often each top-level
// subquery block was evaluated (and what it fetched), and the statement's
// measured I/O totals.
type Analysis struct {
	Query *plan.Query
	Root  Operator
	// SubEvals[i] counts evaluations of Query.Subs[i] (the same-value cache
	// of Section 6 makes this smaller than the candidate-tuple count).
	SubEvals []int
	// SubFetches[i] counts the statement-local page fetches spent inside
	// Query.Subs[i] across all of its evaluations (nested blocks included) —
	// I/O excluded from the enclosing operators' attribution.
	SubFetches []int64
	// IO is the statement's measured totals, from its own accumulator: the
	// quantities of COST = PAGE FETCHES + W*(RSI CALLS).
	IO storage.IOStatsSnapshot
}

// RunQueryAnalyze is RunQueryArgs keeping the instrumented operator tree for
// rendering. The Analysis is returned even when execution aborts (canceled,
// budget exceeded, storage fault), carrying the actuals up to the abort —
// nil only if the plan could not be built.
func RunQueryAnalyze(rt *Runtime, q *plan.Query, args []value.Value) ([]value.Row, *Stats, *Analysis, error) {
	rows, stats, ctx, err := runQuery(rt, q, args)
	if ctx == nil || ctx.root == nil {
		return rows, stats, nil, err
	}
	a := &Analysis{
		Query:      q,
		Root:       ctx.root,
		SubEvals:   make([]int, len(q.Subs)),
		SubFetches: make([]int64, len(q.Subs)),
		IO:         stats.IO,
	}
	for i, sp := range q.Subs {
		if st, ok := ctx.subs[sp.Sub]; ok {
			a.SubEvals[i] = st.evals
			a.SubFetches[i] = st.fetches
		}
	}
	return rows, stats, a, err
}

// Format renders the annotated plan tree. w is the optimizer's CPU weighting
// factor, used to collapse each node's estimated (pages, rsi) cost into the
// single COST number the paper's formula produces.
func (a *Analysis) Format(w float64) string {
	var b strings.Builder
	b.WriteString("QUERY BLOCK (main)\n")
	formatOp(&b, a.Root, 1, w)
	for i, sp := range a.Query.Subs {
		kind := "subquery"
		if sp.Sub.Correlated {
			kind = "correlated subquery"
		}
		times := "times"
		if a.SubEvals[i] == 1 {
			times = "time"
		}
		fmt.Fprintf(&b, "QUERY BLOCK (%s #%d)  [evaluated %d %s, fetches=%d; estimates only]\n",
			kind, sp.Sub.ID, a.SubEvals[i], times, a.SubFetches[i])
		formatEstOnly(&b, sp.Query)
	}
	fmt.Fprintf(&b, "statement: fetches=%d writes=%d rsi=%d cost=%.1f (W=%g)\n",
		a.IO.PageFetches, a.IO.PagesWritten, a.IO.RSICalls, a.IO.Cost(w), w)
	return b.String()
}

// formatOp writes one operator's estimate-vs-actual line and recurses.
func formatOp(b *strings.Builder, o Operator, depth int, w float64) {
	e := o.Plan().Est()
	s := o.Stats()
	fetches := s.Fetches
	elapsed := s.Elapsed
	for _, k := range o.Children() {
		ks := k.Stats()
		fetches -= ks.Fetches
		elapsed -= ks.Elapsed
	}
	fmt.Fprintf(b, "%s%s  {est rows=%.1f cost=%.1f | act rows=%d",
		strings.Repeat("  ", depth), o.Plan().Label(), e.Rows, e.Cost.Total(w), s.Rows)
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
		formatOp(b, k, depth+1, w)
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

// formatEstOnly renders a nested block's plan with estimates alone: subquery
// blocks execute through fresh per-evaluation contexts, so no single
// operator tree holds their actuals.
func formatEstOnly(b *strings.Builder, q *plan.Query) {
	estNode(b, q.Root, 1)
	for _, sp := range q.Subs {
		kind := "subquery"
		if sp.Sub.Correlated {
			kind = "correlated subquery"
		}
		fmt.Fprintf(b, "QUERY BLOCK (%s #%d)  [estimates only]\n", kind, sp.Sub.ID)
		formatEstOnly(b, sp.Query)
	}
}

func estNode(b *strings.Builder, n plan.Node, depth int) {
	e := n.Est()
	fmt.Fprintf(b, "%s%s  {est rows=%.1f cost: %s}\n", strings.Repeat("  ", depth), n.Label(), e.Rows, e.Cost)
	for _, c := range n.Children() {
		estNode(b, c, depth+1)
	}
}
