// Package core implements the paper's primary contribution: access path
// selection. Given an analyzed query block, the optimizer
//
//   - assigns a selectivity factor F to every boolean factor (Table 1),
//   - costs every single-relation access path — each index plus a segment
//     scan — with COST = PAGE FETCHES + W*(RSI CALLS) (Table 2),
//   - tracks "interesting orders" (ORDER BY / GROUP BY columns and join
//     columns, folded into order-equivalence classes),
//   - searches join orders with a dynamic program over successively larger
//     subsets of relations, keeping per subset the cheapest unordered
//     solution and the cheapest solution per interesting order, pruning with
//     the heuristic that joins requiring Cartesian products are performed as
//     late as possible (Section 5), and
//   - plans nested and correlated subqueries (Section 6).
//
// The output is a physical plan (package plan) the executor interprets.
package core

import (
	"fmt"
	"math"

	"systemr/internal/catalog"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Config tunes the optimizer.
type Config struct {
	// W is the adjustable weighting factor between I/O (page fetches) and
	// CPU (RSI calls): COST = PAGE_FETCHES + W*RSI_CALLS. The default 0.033
	// values one page fetch at about thirty tuple retrievals.
	W float64
	// BufferPages is the buffer-pool size the Table 2 "fits in the System R
	// buffer" alternatives test against.
	BufferPages int

	// DisableJoinHeuristic turns off the "no early Cartesian products" search
	// reduction so experiments can measure its effect.
	DisableJoinHeuristic bool
	// DisableInterestingOrders makes the search keep only the single cheapest
	// solution per subset of relations — an ablation of the paper's order
	// bookkeeping (sort-avoidance disappears).
	DisableInterestingOrders bool
	// DisableSargs keeps every predicate out of the RSS search arguments so
	// that all filtering happens above the RSI (every tuple costs an RSI
	// call); used by the sargability experiments.
	DisableSargs bool
	// Joins restricts the join methods considered; the zero value allows
	// all three.
	Joins JoinMethod
	// DisableHistograms ignores per-column histogram statistics so every
	// selectivity estimate comes from Table 1 and index ICARDs alone — the
	// paper's original behavior, kept for experiments and comparison runs.
	DisableHistograms bool
	// Naive replaces the join search with the no-optimizer baseline (see
	// naiveJoin) in every query block.
	Naive bool

	// Trace, when non-nil, records the search tree (Figures 2-6).
	Trace *Trace
}

// JoinMethod is the set of join methods the search may use.
type JoinMethod uint8

const (
	// AllJoins considers nested loops, merging scans and hash joins.
	AllJoins JoinMethod = iota
	// NestedLoopsOnly considers nested loops alone.
	NestedLoopsOnly
	// MergeOnly considers merging scans, and nested loops only for a join
	// step no equi-join applies to. Together with NestedLoopsOnly it keeps
	// the paper's two-method experiments in their original search space.
	MergeOnly
)

// DefaultW is the default CPU weighting factor.
const DefaultW = 0.033

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = DefaultW
	}
	if c.BufferPages <= 0 {
		c.BufferPages = 64
	}
	return c
}

// Optimizer plans one statement's query blocks.
type Optimizer struct {
	cfg Config

	// Per-block planning state (reset by planBlock).
	blk       *sem.Block
	factors   []*factorInfo
	classes   *orderClasses
	interest  []order
	nextParam int
	// subInfo caches planned subquery statistics for Table 1's IN-subquery
	// selectivity and for costing correlated re-evaluation (Section 6).
	subInfo map[*sem.Subquery]subStats
	// lits, when non-nil, are the values of the block's lifted literals
	// (see Classifier); otherwise each reads as compiled.
	lits []value.Value

	searchStats SearchStats
}

type subStats struct {
	qcard   float64   // estimated output cardinality of the subquery
	relProd float64   // product of the cardinalities of its FROM relations
	cost    plan.Cost // estimated cost of one evaluation
}

// factorInfo annotates a boolean factor with its selectivity and its
// attachment point.
type factorInfo struct {
	f    *sem.BoolFactor
	sel  float64
	rels sem.RelSet // normalized: factors touching no relation attach to rel 0
}

// New creates an optimizer. The catalog argument is unused: an analyzed
// block's relations carry their tables and statistics. It stays for
// bench/trace.go's lifecycle replay, which ROADMAP item 1 deletes, and goes
// with it.
func New(_ *catalog.Catalog, cfg Config) *Optimizer {
	return &Optimizer{cfg: cfg.withDefaults()}
}

// Optimize plans a full analyzed statement (the main block plus nested
// blocks, innermost first, as Section 6 prescribes).
func (o *Optimizer) Optimize(blk *sem.Block) (*plan.Query, error) {
	return o.planBlock(blk)
}

func (o *Optimizer) planBlock(blk *sem.Block) (*plan.Query, error) {
	// Plan nested blocks first: "the most deeply nested subqueries are
	// evaluated first" — and their estimated cardinalities feed the
	// IN-subquery selectivity of this block's factors.
	subPlans := make([]*plan.SubPlan, 0, len(blk.Subqueries))
	for _, sub := range blk.Subqueries {
		sp, err := o.planBlock(sub.Block)
		if err != nil {
			return nil, err
		}
		subPlans = append(subPlans, &plan.SubPlan{Sub: sub, Query: sp})
	}
	o.enterBlock(blk, subPlans, plan.Node.Est)

	var best *solution
	var err error
	if o.cfg.Naive {
		best = o.naiveJoin()
	} else if best, err = o.search(); err != nil {
		return nil, err
	}
	return &plan.Query{
		Block:     blk,
		Root:      o.assemble(best),
		Subs:      subPlans,
		NumParams: o.nextParam,
		OutNames:  blk.SelectNames,
	}, nil
}

// enterBlock resets the per-block state for blk, whose nested blocks are
// planned as subs, with est giving their estimates: the subqueries'
// statistics and every boolean factor's F.
func (o *Optimizer) enterBlock(blk *sem.Block, subs []*plan.SubPlan, est func(plan.Node) plan.Estimate) {
	o.subInfo = make(map[*sem.Subquery]subStats, len(subs))
	for _, sp := range subs {
		relProd := 1.0
		for _, r := range sp.Sub.Block.Rels {
			relProd *= r.Table.Stats.EffNCard()
		}
		root := est(sp.Query.Root)
		o.subInfo[sp.Sub] = subStats{qcard: root.Rows, relProd: relProd, cost: root.Cost}
	}
	o.blk = blk
	o.nextParam = blk.NumParams
	o.classes = newOrderClasses()
	for _, f := range blk.Factors {
		if f.EquiJoin != nil {
			o.classes.union(f.EquiJoin.Left, f.EquiJoin.Right)
		}
	}
	o.factors = make([]*factorInfo, len(blk.Factors))
	for i, f := range blk.Factors {
		rels := f.Rels
		if rels == 0 {
			// Factors referencing no relation of this block (constants,
			// pure-parameter predicates) are applied once, at the first
			// FROM-list relation's scan.
			rels = rels.Set(0)
		}
		o.factors[i] = &factorInfo{f: f, sel: o.selectivity(f.Expr), rels: rels}
	}
	o.interest = o.interestingOrders()
}

// cardOf estimates the composite cardinality of a relation subset: the
// product of its relations' cardinalities times the selectivities of every
// boolean factor fully contained in the subset.
func (o *Optimizer) cardOf(s sem.RelSet) float64 {
	card := 1.0
	for _, r := range s.Members() {
		card *= o.blk.Rels[r].Table.Stats.EffNCard()
	}
	for _, fi := range o.factors {
		if s.Contains(fi.rels) {
			card *= fi.sel
		}
	}
	if card < 0 {
		card = 0
	}
	return card
}

// rowWidth estimates the stored bytes of one tuple of relation r, from
// TCARD/NCARD when statistics exist.
func (o *Optimizer) rowWidth(r int) float64 {
	st := o.blk.Rels[r].Table.Stats
	if st.HasStats && st.NCard > 0 {
		w := float64(st.TCard) * storage.PageSize / float64(st.NCard)
		return math.Max(8, math.Min(w, storage.PageSize))
	}
	return 64
}

// setWidth estimates the composite-tuple width for a subset.
func (o *Optimizer) setWidth(s sem.RelSet) float64 {
	w := 0.0
	for _, r := range s.Members() {
		w += o.rowWidth(r)
	}
	return w
}

// tempPages is TEMPPAGES: pages required to hold card tuples of the given
// width in a temporary list.
func tempPages(card, width float64) float64 {
	tp := math.Ceil(card * width / storage.PageSize)
	if tp < 1 {
		tp = 1
	}
	return tp
}

// debugString is used in trace output and error paths.
func relSetString(blk *sem.Block, s sem.RelSet) string {
	names := ""
	for _, r := range s.Members() {
		if names != "" {
			names += ","
		}
		names += blk.Rels[r].Name
	}
	return "{" + names + "}"
}

var errNoPlan = fmt.Errorf("core: no plan produced (internal error)")

// FactorSelectivities returns the Table 1 selectivity factor assigned to
// each boolean factor of the outermost block in the most recent Optimize
// call, in factor order. The experiment harness compares these against
// measured fractions.
func (o *Optimizer) FactorSelectivities() []float64 {
	out := make([]float64, len(o.factors))
	for i, fi := range o.factors {
		out[i] = fi.sel
	}
	return out
}
