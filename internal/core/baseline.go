package core

// Baseline planner for the evaluation harness: the plan a system without an
// optimizer would run — segment scans everywhere, FROM-order left-deep
// nested-loop joins, every predicate evaluated as a residual filter above
// the scans (nothing pushed into RSS search arguments, no index use, no
// interesting orders). Comparing its measured cost against the optimizer's
// chosen plan quantifies what access path selection buys.

import (
	"systemr/internal/plan"
	"systemr/internal/sem"
)

// naiveJoin replaces the search for Config.Naive: a left-deep nested-loop
// join of segment scans in FROM order, with a final sort when the block
// requires an order. planBlock has already planned the nested blocks (the
// same way) and set up the block's selectivities, which only feed the
// estimates here.
func (o *Optimizer) naiveJoin() *solution {
	sol := o.naiveScan(0)
	for r := 1; r < len(o.blk.Rels); r++ {
		inner := o.naiveScan(r)
		next := sol.set.Set(r)
		var residual []sem.Expr
		for _, fi := range o.factors {
			if next.Contains(fi.rels) && !sol.set.Contains(fi.rels) && !inner.set.Contains(fi.rels) {
				residual = append(residual, fi.f.Expr)
			}
		}
		join := &plan.NLJoin{Outer: sol.node, Inner: inner.node, Residual: residual}
		sol = solution{set: next, node: priced(join, nlJoinEst(sol.node.Est(), inner.node.Est(), o.cardOf(sol.set), o.cardOf(next)))}
	}
	if req := o.requiredOrder(); len(req) > 0 {
		sol = o.sortSolution(&sol, req, o.cardOf(sol.set))
	}
	return &sol
}

// naiveScan is a segment scan with every local factor as a residual filter.
func (o *Optimizer) naiveScan(rel int) solution {
	set := sem.RelSet(0).Set(rel)
	var residual []sem.Expr
	for _, fi := range o.factors {
		if fi.rels == set {
			residual = append(residual, fi.f.Expr)
		}
	}
	node := &plan.SegScan{Table: o.blk.Rels[rel].Table, RelIdx: rel, RelName: o.blk.Rels[rel].Name, Residual: residual}
	e, _, _ := o.priceScan(node, nil)
	return solution{set: set, node: priced(node, e)}
}
