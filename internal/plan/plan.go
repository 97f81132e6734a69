// Package plan defines the physical execution plans the optimizer emits —
// our analog of System R's Access Specification Language (ASL): for each
// query block, an ordered tree of relation accesses (segment or index scan,
// with start/stop keys and search arguments), join methods (nested loops or
// merging scans), sorts into temporary lists, aggregation, and projection,
// each node annotated with the optimizer's predicted cost and cardinality.
package plan

import (
	"fmt"
	"strings"

	"systemr/internal/catalog"
	"systemr/internal/sem"
)

// Cost is the paper's two-term cost: I/O in page fetches and CPU in RSI
// calls, combined as COST = PAGE_FETCHES + W*(RSI CALLS).
type Cost struct {
	Pages float64
	RSI   float64
}

// Total evaluates the weighted cost.
func (c Cost) Total(w float64) float64 { return c.Pages + w*c.RSI }

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost { return Cost{Pages: c.Pages + o.Pages, RSI: c.RSI + o.RSI} }

// Scale multiplies both terms (e.g. inner cost × N outer tuples).
func (c Cost) Scale(f float64) Cost { return Cost{Pages: c.Pages * f, RSI: c.RSI * f} }

// String renders the cost for EXPLAIN.
func (c Cost) String() string { return fmt.Sprintf("pages=%.1f rsi=%.1f", c.Pages, c.RSI) }

// Estimate annotates a node with predicted cost and output cardinality.
type Estimate struct {
	Cost Cost
	Rows float64
}

// Node is one physical plan operator.
type Node interface {
	Est() Estimate
	Children() []Node
	Label() string
}

// est embeds the shared estimate.
type est struct{ E Estimate }

// Est returns the node's estimate.
func (e *est) Est() Estimate { return e.E }

// SetEst sets the node's estimate (used by the optimizer).
func (e *est) SetEst(v Estimate) { e.E = v }

// ParamBind copies a column of the current outer composite row into a
// runtime parameter slot before the inner plan (re-)opens: the mechanism
// behind "the join predicate is applied as a search argument on the inner
// relation" in nested-loop joins.
type ParamBind struct {
	Param int
	From  sem.ColumnID
}

// SegScan finds all tuples of a relation via its segment (cost TCARD/P).
type SegScan struct {
	est
	Table    *catalog.Table
	RelIdx   int // slot in the runtime composite row
	RelName  string
	Sargs    []sem.SargDNF // RSS search arguments, one DNF per boolean factor
	Residual []sem.Expr    // non-sargable local factors
}

// IndexScan walks an index between start and stop keys (Table 2 formulas).
type IndexScan struct {
	est
	Index    *catalog.Index
	RelIdx   int
	RelName  string
	Lo       []sem.Bound // start key prefix (nil = first)
	LoInc    bool
	Hi       []sem.Bound // stop key prefix (nil = last)
	HiInc    bool
	Sargs    []sem.SargDNF
	Residual []sem.Expr
	// Matching notes whether the scan's key range came from matching boolean
	// factors (for EXPLAIN and the Table 2 experiments).
	Matching bool
}

// NLJoin is the nested-loops method: for each outer tuple, bind params and
// re-open the inner scan.
type NLJoin struct {
	est
	Outer, Inner Node
	Binds        []ParamBind
	Residual     []sem.Expr // join predicates not pushed into the inner scan
}

// MergeJoin is the merging-scans method on one equi-join predicate; both
// inputs arrive in join-column order and the executor synchronizes the scans,
// buffering the current inner join group.
type MergeJoin struct {
	est
	Outer, Inner       Node
	OuterCol, InnerCol sem.ColumnID
	Residual           []sem.Expr // remaining join predicates
}

// HashJoin is the third join method: materialize the inner (build) side into
// an in-memory hash table on the join column, then stream the outer (probe)
// side against it. It produces no interesting order — the optimizer prefers
// merge when an order is exploitable downstream and hash otherwise.
type HashJoin struct {
	est
	Outer, Inner       Node // Outer probes, Inner builds
	OuterCol, InnerCol sem.ColumnID
	Residual           []sem.Expr // remaining join predicates
	// BuildRows is the optimizer's cardinality estimate for the build side,
	// used by the executor to pre-size the hash table.
	BuildRows float64
}

// Parallel was the intra-query exchange operator.
//
// Deprecated: the optimizer no longer plants it and the executor cannot run
// it. The type stays only because bench/trace.go's operator-class type
// switch names it.
type Parallel struct {
	est
}

// Sort orders composite rows by the given keys, materializing through the
// buffer pool into a temporary list (Section 5's "sorted into a temporary
// relation").
type Sort struct {
	est
	Input Node
	Keys  []sem.OrderKey
}

// GroupAgg aggregates input (already ordered on GroupCols) and evaluates the
// block's output expressions per group. With no GroupCols it produces one
// row for the whole input.
type GroupAgg struct {
	est
	Input     Node
	GroupCols []sem.ColumnID
	Aggs      []*sem.Agg
	// Having filters finished groups (each conjunct over group columns and
	// aggregate results).
	Having   []sem.Expr
	OutExprs []sem.Expr
	OutNames []string
}

// Project evaluates the block's output expressions over composite rows.
type Project struct {
	est
	Input    Node
	Exprs    []sem.Expr
	OutNames []string
}

// Distinct removes duplicate output rows (hash-based, order-preserving; see
// DESIGN.md for the deviation from System R's sort-based duplicate
// elimination).
type Distinct struct {
	est
	Input Node
}

// Children/Label implementations.

func (n *SegScan) Children() []Node { return nil }

func (n *SegScan) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SEGSCAN %s", n.RelName)
	if n.Table.Name != n.RelName {
		fmt.Fprintf(&b, " (%s)", n.Table.Name)
	}
	writePreds(&b, n.Sargs, n.Residual)
	return b.String()
}

func (n *IndexScan) Children() []Node { return nil }

func (n *IndexScan) Label() string {
	var b strings.Builder
	kind := "INDEXSCAN"
	if n.Index.Clustered {
		kind = "CLUSTERED-INDEXSCAN"
	}
	fmt.Fprintf(&b, "%s %s via %s(%s)", kind, n.RelName, n.Index.Name, strings.Join(n.Index.ColumnNames(), ","))
	if len(n.Lo) > 0 || len(n.Hi) > 0 {
		b.WriteString(" key:[")
		if len(n.Lo) > 0 {
			b.WriteString(boundsString(n.Lo))
			if !n.LoInc {
				b.WriteString(" (excl)")
			}
		} else {
			b.WriteString("-inf")
		}
		b.WriteString(" .. ")
		if len(n.Hi) > 0 {
			b.WriteString(boundsString(n.Hi))
			if !n.HiInc {
				b.WriteString(" (excl)")
			}
		} else {
			b.WriteString("+inf")
		}
		b.WriteString("]")
	}
	writePreds(&b, n.Sargs, n.Residual)
	return b.String()
}

func boundsString(bs []sem.Bound) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.String()
	}
	return strings.Join(parts, ",")
}

func writePreds(b *strings.Builder, sargs []sem.SargDNF, residual []sem.Expr) {
	for _, dnf := range sargs {
		b.WriteString(" sarg:")
		for i, conj := range dnf {
			if i > 0 {
				b.WriteString(" OR ")
			} else {
				b.WriteString(" ")
			}
			terms := make([]string, len(conj))
			for j, t := range conj {
				terms[j] = fmt.Sprintf("c%d %s %s", t.Col.Col, t.Op, t.Val)
			}
			b.WriteString("(" + strings.Join(terms, " AND ") + ")")
		}
	}
	if len(residual) > 0 {
		b.WriteString(" filter:")
		for i, e := range residual {
			if i > 0 {
				b.WriteString(" AND")
			}
			b.WriteString(" " + e.String())
		}
	}
}

func (n *NLJoin) Children() []Node { return []Node{n.Outer, n.Inner} }

func (n *NLJoin) Label() string {
	var b strings.Builder
	b.WriteString("NLJOIN")
	if len(n.Binds) > 0 {
		parts := make([]string, len(n.Binds))
		for i, bind := range n.Binds {
			parts[i] = fmt.Sprintf("$%d=outer[%d.%d]", bind.Param, bind.From.Rel, bind.From.Col)
		}
		b.WriteString(" bind: " + strings.Join(parts, ", "))
	}
	if len(n.Residual) > 0 {
		writePreds(&b, nil, n.Residual)
	}
	return b.String()
}

func (n *MergeJoin) Children() []Node { return []Node{n.Outer, n.Inner} }

func (n *MergeJoin) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MERGEJOIN on outer[%d.%d] = inner[%d.%d]",
		n.OuterCol.Rel, n.OuterCol.Col, n.InnerCol.Rel, n.InnerCol.Col)
	if len(n.Residual) > 0 {
		writePreds(&b, nil, n.Residual)
	}
	return b.String()
}

func (n *HashJoin) Children() []Node { return []Node{n.Outer, n.Inner} }

func (n *HashJoin) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HASHJOIN build inner[%d.%d] probe outer[%d.%d]",
		n.InnerCol.Rel, n.InnerCol.Col, n.OuterCol.Rel, n.OuterCol.Col)
	if len(n.Residual) > 0 {
		writePreds(&b, nil, n.Residual)
	}
	return b.String()
}

func (n *Parallel) Children() []Node { return nil }

func (n *Parallel) Label() string { return "PARALLEL" }

func (n *Sort) Children() []Node { return []Node{n.Input} }

func (n *Sort) Label() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		dir := ""
		if k.Desc {
			dir = " DESC"
		}
		parts[i] = fmt.Sprintf("[%d.%d]%s", k.Col.Rel, k.Col.Col, dir)
	}
	return "SORT into temp list by " + strings.Join(parts, ", ")
}

func (n *GroupAgg) Children() []Node { return []Node{n.Input} }

func (n *GroupAgg) Label() string {
	var b strings.Builder
	b.WriteString("GROUP")
	if len(n.GroupCols) > 0 {
		parts := make([]string, len(n.GroupCols))
		for i, c := range n.GroupCols {
			parts[i] = fmt.Sprintf("[%d.%d]", c.Rel, c.Col)
		}
		b.WriteString(" by " + strings.Join(parts, ", "))
	}
	aggs := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		aggs[i] = a.String()
	}
	if len(aggs) > 0 {
		b.WriteString(" agg: " + strings.Join(aggs, ", "))
	}
	if len(n.Having) > 0 {
		b.WriteString(" having:")
		for i, h := range n.Having {
			if i > 0 {
				b.WriteString(" AND")
			}
			b.WriteString(" " + h.String())
		}
	}
	return b.String()
}

func (n *Project) Children() []Node { return []Node{n.Input} }

func (n *Project) Label() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "PROJECT " + strings.Join(parts, ", ")
}

func (n *Distinct) Children() []Node { return []Node{n.Input} }

func (n *Distinct) Label() string { return "DISTINCT" }

// SubPlan is the plan of one nested query block (Section 6), linked to the
// parent block's plan. Non-correlated subqueries are evaluated once before
// the parent block; correlated ones per candidate tuple, with the
// same-value result cache the paper describes.
type SubPlan struct {
	Sub   *sem.Subquery
	Query *Query
}

// Query is the complete plan for one query block.
type Query struct {
	Block     *sem.Block
	Root      Node
	Subs      []*SubPlan
	NumParams int // block correlation params + optimizer-allocated slots
	// OutNames are the result column names.
	OutNames []string
}

// Explain renders the plan tree, one node per line with indentation, with
// each nested query block appended after its parent.
func (q *Query) Explain() string {
	var b strings.Builder
	q.explainInto(&b, "QUERY BLOCK (main)")
	return b.String()
}

func (q *Query) explainInto(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n", title)
	explainNode(b, q.Root, 1)
	for _, sp := range q.Subs {
		kind := "subquery"
		if sp.Sub.Correlated {
			kind = "correlated subquery"
		}
		sp.Query.explainInto(b, fmt.Sprintf("QUERY BLOCK (%s #%d)", kind, sp.Sub.ID))
	}
}

func explainNode(b *strings.Builder, n Node, depth int) {
	e := n.Est()
	fmt.Fprintf(b, "%s%s  {cost: %s, rows=%.1f}\n", strings.Repeat("  ", depth), n.Label(), e.Cost, e.Rows)
	for _, c := range n.Children() {
		explainNode(b, c, depth+1)
	}
}
