package core

// Final plan assembly: wrap the chosen join-tree solution with aggregation,
// projection, and duplicate elimination. The join search already guaranteed
// the input ordering that GROUP BY / ORDER BY require (or inserted the final
// sort), so these wrappers are pure streaming operators, and Project and
// Distinct pass their input's estimate through.

import (
	"math"

	"systemr/internal/plan"
)

func (o *Optimizer) assemble(best *solution) plan.Node {
	blk := o.blk
	var top plan.Node
	if blk.HasAgg {
		top = priced(&plan.GroupAgg{
			Input:     best.node,
			GroupCols: blk.GroupBy,
			Aggs:      blk.Aggs,
			Having:    blk.Having,
			OutExprs:  blk.Select,
			OutNames:  blk.SelectNames,
		}, o.groupAggEst(best.node.Est()))
	} else {
		top = priced(&plan.Project{Input: best.node, Exprs: blk.Select, OutNames: blk.SelectNames}, best.node.Est())
	}
	if blk.Distinct {
		top = priced(&plan.Distinct{Input: top}, top.Est())
	}
	return top
}

// estimateGroups predicts the number of groups: the product of the group
// columns' index cardinalities when known, capped by the input cardinality;
// with no statistics a tenth of the input is assumed.
func (o *Optimizer) estimateGroups(rows float64) float64 {
	if len(o.blk.GroupBy) == 0 {
		return 1 // scalar aggregate
	}
	g := 1.0
	known := true
	for _, c := range o.blk.GroupBy {
		ic := o.icardOf(c)
		if ic <= 0 {
			known = false
			break
		}
		g *= ic
	}
	if !known {
		g = rows / 10
	}
	return math.Max(1, math.Min(g, rows))
}
