package core

// Baseline planner for the evaluation harness: the plan a system without an
// optimizer would run — segment scans everywhere, FROM-order left-deep
// nested-loop joins, every predicate evaluated as a residual filter above
// the scans (nothing pushed into RSS search arguments, no index use, no
// interesting orders). Comparing its measured cost against the optimizer's
// chosen plan quantifies what access path selection buys.

import (
	"math"

	"systemr/internal/plan"
	"systemr/internal/sem"
)

// naiveJoin replaces the search for Config.Naive: a left-deep nested-loop
// join of segment scans in FROM order, with a final sort when the block
// requires an order. planBlock has already planned the nested blocks (the
// same way) and set up the block's selectivities, which only feed the
// estimates here.
func (o *Optimizer) naiveJoin() *solution {
	node := o.naiveScan(0)
	covered := sem.RelSet(0).Set(0)
	for r := 1; r < len(o.blk.Rels); r++ {
		inner := o.naiveScan(r)
		next := covered.Set(r)
		var residual []sem.Expr
		var rOnly sem.RelSet
		rOnly = rOnly.Set(r)
		for _, fi := range o.factors {
			if next.Contains(fi.rels) && !covered.Contains(fi.rels) && !rOnly.Contains(fi.rels) {
				residual = append(residual, fi.f.Expr)
			}
		}
		join := &plan.NLJoin{Outer: node, Inner: inner, Residual: residual}
		join.SetEst(plan.Estimate{
			Cost: node.Est().Cost.Add(inner.Est().Cost.Scale(math.Max(1, node.Est().Rows))),
			Rows: o.cardOf(next),
		})
		node = join
		covered = next
	}

	if req := o.requiredOrder(); len(req) > 0 {
		sc := o.sortCost(node.Est().Rows, o.setWidth(covered))
		sortNode := &plan.Sort{Input: node, Keys: o.sortKeysFor(req, covered)}
		sortNode.SetEst(plan.Estimate{Cost: node.Est().Cost.Add(sc), Rows: node.Est().Rows})
		node = sortNode
	}
	return &solution{set: covered, node: node, cost: node.Est().Cost}
}

// naiveScan is a segment scan with every local factor as a residual filter.
func (o *Optimizer) naiveScan(rel int) plan.Node {
	t := o.blk.Rels[rel].Table
	var single sem.RelSet
	single = single.Set(rel)
	var residual []sem.Expr
	selAll := 1.0
	for _, fi := range o.factors {
		if fi.rels == single {
			residual = append(residual, fi.f.Expr)
			selAll = clamp01(selAll * fi.sel)
		}
	}
	st := t.Stats
	node := &plan.SegScan{Table: t, RelIdx: rel, RelName: o.blk.Rels[rel].Name, Residual: residual}
	node.SetEst(plan.Estimate{
		Cost: plan.Cost{Pages: st.EffTCard() / st.EffP(), RSI: st.EffNCard()},
		Rows: st.EffNCard() * selAll,
	})
	return node
}
