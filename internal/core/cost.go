package core

// Plan costing: one function per plan-node kind, of the node's inputs alone
// — its fields, its children's estimates, the F of the factors it applies,
// the statistics, BufferPages and W. The search and the naive baseline call
// them as they build nodes, and Cost to re-price a finished plan.

import (
	"math"
	"slices"

	"systemr/internal/catalog"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// priced annotates node n with its estimate e and returns it: the one place
// the optimizer writes an estimate.
func priced[N interface{ SetEst(plan.Estimate) }](n N, e plan.Estimate) N {
	n.SetEst(e)
	return n
}

// scanCard returns a scan's RSICARD, the tuples its search arguments (local
// sargable factors, then pushed join predicates) let across the RSI, and
// its output rows, which also pass the residual factors.
func scanCard(ncard float64, sargable, residual []*factorInfo, pushed []pushedPred) (rsicard, rows float64) {
	selSarg, selAll := 1.0, 1.0
	for _, fi := range sargable {
		selSarg *= fi.sel
		selAll *= fi.sel
	}
	for _, fi := range residual {
		selAll *= fi.sel
	}
	for _, p := range pushed {
		selSarg *= p.sel
		selAll *= p.sel
	}
	return ncard * selSarg, ncard * selAll
}

// scanEst prices segment or index scan n (Table 2): fMatch is an index
// scan's F(preds), unique whether it is a unique probe, and residual the
// local factors it filters above the RSI.
//
// Section 6: residual factors containing correlated subqueries are
// re-evaluated per candidate tuple — unless the tuples arrive ordered on
// the referenced column, in which case the same-value cache evaluates once
// per distinct value ("the re-evaluation can be made conditional"). Each
// path is charged accordingly, so ordered access paths win when they save
// subquery work.
func (o *Optimizer) scanEst(n plan.Node, fMatch float64, unique bool, residual []*factorInfo, rsicard, rows float64) plan.Estimate {
	var cost plan.Cost
	var lead *sem.ColumnID // the column an index scan delivers its tuples in order of
	switch n := n.(type) {
	case *plan.SegScan:
		// A segment scan touches every non-empty page of the segment once.
		st := n.Table.Stats
		cost = plan.Cost{Pages: st.EffTCard() / st.EffP(), RSI: rsicard}
	case *plan.IndexScan:
		cost = o.indexCost(n.Index, unique, fMatch, rsicard)
		lead = &sem.ColumnID{Rel: n.RelIdx, Col: n.Index.ColIdxs[0]}
	}
	for _, fi := range residual {
		col, subCost, ok := o.correlatedResidual(fi)
		if !ok {
			continue
		}
		// Residuals run on the tuples that crossed the RSI.
		evals := rsicard
		if lead != nil && *lead == col {
			if ic := o.icardOf(col); ic > 0 {
				evals = math.Min(evals, ic)
			}
		}
		cost = cost.Add(subCost.Scale(evals))
	}
	return plan.Estimate{Cost: cost, Rows: rows}
}

// indexCost is Table 2's index rows: the cost of scanning index ix for the
// tuples its matching predicates select, with combined selectivity f, when
// rsicard of them cross the RSI. uniqueProbe is the unique index matching an
// equal predicate. An index matching no predicate has f = 1, which turns
// each matching row into the corresponding "not matching" row exactly.
func (o *Optimizer) indexCost(ix *catalog.Index, uniqueProbe bool, f, rsicard float64) plan.Cost {
	if uniqueProbe {
		// 1 index page + 1 data page + W (one RSI call).
		return plan.Cost{Pages: 2, RSI: 1}
	}
	st := ix.Table.Stats
	nindx := ix.Stats.EffNIndx()
	if ix.Clustered {
		return plan.Cost{Pages: f * (nindx + st.EffTCard()), RSI: rsicard}
	}
	// Non-clustered: one page fetch per tuple, or per data page when the
	// pages touched fit in the System R buffer.
	pages := f * (nindx + st.EffNCard())
	if alt := f * (nindx + st.EffTCard()); alt <= float64(o.cfg.BufferPages) {
		pages = alt
	}
	return plan.Cost{Pages: pages, RSI: rsicard}
}

// nlJoinEst is the nested-loop method: C-outer + N-outer × C-inner, where
// the inner's estimate is per probe, the join predicates pushed into it
// already applied.
func nlJoinEst(outer, inner plan.Estimate, nOuter, rows float64) plan.Estimate {
	return plan.Estimate{Cost: outer.Cost.Add(inner.Cost.Scale(nOuter)), Rows: rows}
}

// mergeJoinEst is the merging-scans method: C-outer plus the inner's share.
// An index scan already in join-column order is charged, per outer tuple,
// Table 2's matching cost with the join predicate (selectivity fJoin) as an
// equal predicate, where rsicard is the inner relation's RSICARD; a sorted
// temporary list is read once, at its own estimate.
func (o *Optimizer) mergeJoinEst(outer plan.Estimate, inner plan.Node, innerEst plan.Estimate, fJoin, rsicard, nOuter, rows float64) plan.Estimate {
	c := innerEst.Cost
	if ix, ok := inner.(*plan.IndexScan); ok {
		c = o.indexCost(ix.Index, ix.Index.Unique && len(ix.Index.ColIdxs) == 1, fJoin, rsicard*fJoin).Scale(nOuter)
	}
	return plan.Estimate{Cost: outer.Cost.Add(c), Rows: rows}
}

// hashJoinEst is the third method, costed in the style of Table 2:
//
//	C-hash = C-outer(path) + C-inner(path) + W*(N-inner + N-outer)
//	       [+ 2*TEMPPAGES(N-inner, width) if the table exceeds the buffer]
//
// The inner (build) side is read once by its cheapest access path and each
// of its N-inner qualifying tuples costs one RSI-like call to enter the hash
// table; each of the N-outer probe tuples costs one lookup.
func (o *Optimizer) hashJoinEst(outer, build plan.Estimate, width, nOuter, rows float64) plan.Estimate {
	buildCost := build.Cost.Add(plan.Cost{RSI: build.Rows})
	if tp := tempPages(build.Rows, width); tp > float64(o.cfg.BufferPages) {
		// The build side does not fit the System R buffer: charge a
		// write-out and read-back of the spilled temporary, as the sorted
		// temp-list formulas do.
		buildCost = buildCost.Add(plan.Cost{Pages: 2 * tp})
	}
	return plan.Estimate{Cost: outer.Cost.Add(buildCost).Add(plan.Cost{RSI: nOuter}), Rows: rows}
}

// sortEst models C-sort(path) on top of the input's cost: writing rows
// tuples of the given width into a temporary list, sorting (possibly
// several passes), and reading the result. The executor's external sort
// performs the same physical work. RSI counts one call per tuple written
// plus one per tuple read back.
func (o *Optimizer) sortEst(in plan.Estimate, rows, width float64) plan.Estimate {
	tp := tempPages(rows, width)
	buf := float64(o.cfg.BufferPages)
	runs := math.Ceil(tp / buf)
	passes := 1.0
	fanin := math.Max(2, buf-1)
	for runs > 1 {
		runs = math.Ceil(runs / fanin)
		passes++
	}
	return plan.Estimate{Cost: in.Cost.Add(plan.Cost{Pages: 2 * tp * passes, RSI: 2 * rows}), Rows: rows}
}

// groupAggEst passes the input's cost through with the grouped output
// cardinality: aggregation CPU is not part of the paper's cost model (it
// counts RSI calls, which all happen below). Each HAVING conjunct filters
// groups; Table 1 has no entry for aggregate predicates, so the open-ended
// default applies.
func (o *Optimizer) groupAggEst(in plan.Estimate) plan.Estimate {
	groups := o.estimateGroups(in.Rows)
	for range o.blk.Having {
		groups = math.Max(1, groups/3)
	}
	return plan.Estimate{Cost: in.Cost, Rows: groups}
}

// Cost prices the finished plan q, nested blocks included, at the values
// lits of its lifted literals (nil reads them as compiled), re-deriving each
// factor's F as Classifier does: at the compile's own values it reproduces
// q's annotations exactly. It never writes to q, which a plan cache shares
// between concurrent statements. Like Classifier, call it under the shared
// catalog lock at the catalog version q was compiled under.
func Cost(q *plan.Query, cfg Config, lits []value.Value) plan.Estimates {
	o := &Optimizer{cfg: cfg.withDefaults(), lits: lits}
	est := make(plan.Estimates)
	o.costBlock(q, est)
	return est
}

// costBlock prices q's nested blocks, innermost first as planBlock plans
// them, then q's own tree.
func (o *Optimizer) costBlock(q *plan.Query, est plan.Estimates) {
	for _, sp := range q.Subs {
		o.costBlock(sp.Query, est)
	}
	o.enterBlock(q.Block, q.Subs, est.Of)
	o.price(q.Root, nil, est)
}

// price re-prices node n and its subtree into est. It returns n's estimate,
// the relations n joins and, for a scan, its RSICARD. pushed are the join
// predicates an enclosing nested loop binds into n, a scan.
func (o *Optimizer) price(n plan.Node, pushed []pushedPred, est plan.Estimates) (e plan.Estimate, s sem.RelSet, rsicard float64) {
	switch n := n.(type) {
	case *plan.SegScan, *plan.IndexScan:
		e, s, rsicard = o.priceScan(n, pushed)
	case *plan.NLJoin:
		outer, so, _ := o.price(n.Outer, nil, est)
		var inner plan.Estimate
		inner, s, _ = o.price(n.Inner, o.boundPreds(n, so), est)
		s |= so
		e = nlJoinEst(outer, inner, o.cardOf(so), o.cardOf(s))
	case *plan.MergeJoin:
		outer, so, _ := o.price(n.Outer, nil, est)
		inner, si, innerRSI := o.price(n.Inner, nil, est)
		if srt, ok := n.Inner.(*plan.Sort); ok {
			// The inner sorts its cheapest access path by that path's rows.
			in := est[srt.Input]
			inner = o.sortEst(in, in.Rows, o.setWidth(si))
			est[srt] = inner
		}
		s = so | si
		e = o.mergeJoinEst(outer, n.Inner, inner, o.equiSel(n.OuterCol, n.InnerCol), innerRSI, o.cardOf(so), o.cardOf(s))
	case *plan.HashJoin:
		outer, so, _ := o.price(n.Outer, nil, est)
		build, si, _ := o.price(n.Inner, nil, est)
		s = so | si
		e = o.hashJoinEst(outer, build, o.setWidth(si), o.cardOf(so), o.cardOf(s))
	case *plan.Sort:
		e, s, _ = o.price(n.Input, nil, est)
		e = o.sortEst(e, o.cardOf(s), o.setWidth(s))
	case *plan.GroupAgg:
		e, s, _ = o.price(n.Input, nil, est)
		e = o.groupAggEst(e)
	case *plan.Project, *plan.Distinct:
		e, s, _ = o.price(n.Children()[0], nil, est)
	}
	est[n] = e
	return e, s, rsicard
}

// scanOf returns scan n's relation, search arguments and residual filters.
func scanOf(n plan.Node) (int, []sem.SargDNF, []sem.Expr) {
	if ix, ok := n.(*plan.IndexScan); ok {
		return ix.RelIdx, ix.Sargs, ix.Residual
	}
	seg := n.(*plan.SegScan)
	return seg.RelIdx, seg.Sargs, seg.Residual
}

// priceScan prices scan n, whose search arguments are the local factors
// that are not among its residuals, plus pushed.
func (o *Optimizer) priceScan(n plan.Node, pushed []pushedPred) (plan.Estimate, sem.RelSet, float64) {
	rel, _, resExprs := scanOf(n)
	set := sem.RelSet(0).Set(rel)
	var sargable, residual []*factorInfo
	for _, fi := range o.factors {
		switch {
		case fi.rels != set:
		case slices.Contains(resExprs, fi.f.Expr):
			residual = append(residual, fi)
		default:
			sargable = append(sargable, fi)
		}
	}
	rsicard, rows := scanCard(o.blk.Rels[rel].Table.Stats.EffNCard(), sargable, residual, pushed)
	fMatch, unique := 1.0, false
	if ix, ok := n.(*plan.IndexScan); ok {
		_, fMatch, unique = o.matchIndex(rel, ix.Index, pushed)
	}
	return o.scanEst(n, fMatch, unique, residual, rsicard, rows), set, rsicard
}

// boundPreds recovers the join predicates nested loop n pushes into its
// inner scan, whose outer joins the relations so: per bind, the inner's
// search argument on the bound $param, with the F of the factor pushable
// as that term.
func (o *Optimizer) boundPreds(n *plan.NLJoin, so sem.RelSet) []pushedPred {
	rel, sargs, _ := scanOf(n.Inner)
	var pushed []pushedPred
	for _, b := range n.Binds {
		for _, sarg := range sargs {
			t := sarg[0][0]
			if t.Val.Kind != sem.BoundParam || t.Val.Param != b.Param {
				continue
			}
			for _, fi := range o.factors {
				if ic, oc, op, ok := o.pushable(fi, so, rel); ok && ic == t.Col && oc == b.From && op == t.Op {
					pushed = append(pushed, pushedPred{sarg: sarg, sel: fi.sel})
					break
				}
			}
		}
	}
	return pushed
}

// equiSel returns the F of the equi-join factor equating columns a and b.
func (o *Optimizer) equiSel(a, b sem.ColumnID) float64 {
	for _, fi := range o.factors {
		if ej := fi.f.EquiJoin; ej != nil && (ej.Left == a && ej.Right == b || ej.Left == b && ej.Right == a) {
			return fi.sel
		}
	}
	return 1
}
