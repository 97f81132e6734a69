package core

// Single-relation access paths and their costs — TABLE 2 of the paper.
//
//	SITUATION                                      COST (pages + W*RSI)
//	unique index matching an equal predicate       1 + 1 + W
//	clustered index I matching boolean factor(s)   F(preds)*(NINDX+TCARD) + W*RSICARD
//	non-clustered index I matching factor(s)       F(preds)*(NINDX+NCARD) + W*RSICARD
//	                                               (or TCARD variant if it fits the buffer)
//	clustered index I not matching any factor      NINDX + TCARD + W*RSICARD
//	non-clustered index I not matching any factor  NINDX + NCARD + W*RSICARD
//	                                               (or TCARD variant if it fits the buffer)
//	segment scan                                   TCARD/P + W*RSICARD
//
// RSICARD = NCARD × product of the selectivities of the sargable boolean
// factors, "since the sargable boolean factors will be put into search
// arguments which will filter out tuples without returning across the RSS
// interface".

import (
	"fmt"
	"math"

	"systemr/internal/catalog"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// pushedPred is a join predicate rewritten as an inner-scan predicate for a
// nested-loop join: the inner column compared against a runtime parameter
// carrying the current outer tuple's value.
type pushedPred struct {
	innerCol sem.ColumnID
	op       value.CmpOp
	bound    sem.Bound // always a BoundParam
	sel      float64   // the originating factor's Table 1 selectivity
}

// pathCand is one candidate access path for a single relation.
type pathCand struct {
	node plan.Node
	cost plan.Cost
	ord  order
	desc string // trace label, e.g. "index EMP_DNO" / "segment scan"
}

// localFactors partitions the block's boolean factors local to relation rel
// into sargable and residual sets.
func (o *Optimizer) localFactors(rel int) (sargable, residual []*factorInfo) {
	var single sem.RelSet
	single = single.Set(rel)
	for _, fi := range o.factors {
		if fi.rels != single {
			continue
		}
		if fi.f.SargDNF != nil && !o.cfg.DisableSargs {
			sargable = append(sargable, fi)
		} else {
			residual = append(residual, fi)
		}
	}
	return sargable, residual
}

// accessPaths is genPaths' result for one relation: every access path, the
// cheapest of them, and the relation's local cardinalities — RSICARD, the
// tuples the search arguments let across the RSI, and rows, those that also
// pass the residual filters.
type accessPaths struct {
	all           []pathCand
	cheapest      pathCand
	rsicard, rows float64
}

// genPaths enumerates every access path on relation rel: one per index plus
// the segment scan, with the relation's local boolean factors (and any
// pushed join predicates) applied as search arguments, index start/stop
// keys, or residual filters.
func (o *Optimizer) genPaths(rel int, pushed []pushedPred) accessPaths {
	t := o.blk.Rels[rel].Table
	st := t.Stats
	relName := o.blk.Rels[rel].Name

	// Selectivity bookkeeping, in the order sargable, residual, pushed.
	sargable, residual := o.localFactors(rel)
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
	ncard := st.EffNCard()
	rsicard := ncard * selSarg
	rows := ncard * selAll

	// Search arguments: one DNF per sargable factor plus one per pushed
	// predicate; the RSS applies their conjunction.
	var sargs []sem.SargDNF
	for _, fi := range sargable {
		sargs = append(sargs, fi.f.SargDNF)
	}
	for _, p := range pushed {
		sargs = append(sargs, sem.SargDNF{{sem.SargTerm{Col: p.innerCol, Op: p.op, Val: p.bound}}})
	}
	resExprs := make([]sem.Expr, len(residual))
	for i, fi := range residual {
		resExprs[i] = fi.f.Expr
	}

	var paths []pathCand

	// Segment scan: touches every non-empty page of the segment once.
	segPages := st.EffTCard() / st.EffP()
	seg := &plan.SegScan{
		Table: t, RelIdx: rel, RelName: relName,
		Sargs: sargs, Residual: resExprs,
	}
	segCost := plan.Cost{Pages: segPages, RSI: rsicard}
	seg.SetEst(plan.Estimate{Cost: segCost, Rows: rows})
	paths = append(paths, pathCand{node: seg, cost: segCost, ord: nil, desc: "segment scan"})

	// Index scans.
	for _, ix := range t.Indexes {
		paths = append(paths, o.indexPath(rel, ix, pushed, sargs, resExprs, rsicard, rows))
	}

	// Section 6: residual factors containing correlated subqueries are
	// re-evaluated per candidate tuple — unless the tuples arrive ordered on
	// the referenced column, in which case the same-value cache evaluates
	// once per distinct value ("the re-evaluation can be made conditional").
	// Charge each path accordingly, so ordered access paths win when they
	// save subquery work.
	for _, fi := range residual {
		col, subCost, evalsUnordered, ok := o.correlatedResidual(rel, fi, rsicard)
		if !ok {
			continue
		}
		for i := range paths {
			evals := evalsUnordered
			if len(paths[i].ord) > 0 && paths[i].ord[0].class == col {
				if ic := o.icardOf(col); ic > 0 {
					evals = math.Min(evals, ic)
				}
			}
			extra := subCost.Scale(evals)
			paths[i].cost = paths[i].cost.Add(extra)
			switch n := paths[i].node.(type) {
			case *plan.SegScan:
				n.SetEst(plan.Estimate{Cost: paths[i].cost, Rows: rows})
			case *plan.IndexScan:
				n.SetEst(plan.Estimate{Cost: paths[i].cost, Rows: rows})
			}
		}
	}

	best := paths[0]
	for _, p := range paths[1:] {
		if p.cost.Total(o.cfg.W) < best.cost.Total(o.cfg.W) {
			best = p
		}
	}
	return accessPaths{all: paths, cheapest: best, rsicard: rsicard, rows: rows}
}

// correlatedResidual recognizes a residual factor whose subqueries all
// correlate on a single column of this relation, returning that column, the
// per-evaluation cost, and the expected evaluations for unordered delivery.
func (o *Optimizer) correlatedResidual(rel int, fi *factorInfo, rsicard float64) (sem.ColumnID, plan.Cost, float64, bool) {
	var col sem.ColumnID
	found := false
	var total plan.Cost
	for _, sub := range fi.f.Subs {
		if !sub.Correlated {
			continue
		}
		st, ok := o.subInfo[sub]
		if !ok {
			continue
		}
		for _, cr := range sub.Block.CorrelRefs {
			if cr.FromParam {
				continue
			}
			if cr.FromCol.Rel != rel {
				return sem.ColumnID{}, plan.Cost{}, 0, false // spans relations
			}
			if found && cr.FromCol != col {
				return sem.ColumnID{}, plan.Cost{}, 0, false // multiple columns
			}
			col = cr.FromCol
			found = true
		}
		total = total.Add(st.cost)
	}
	if !found {
		return sem.ColumnID{}, plan.Cost{}, 0, false
	}
	// Residuals run on tuples that crossed the RSI.
	return col, total, rsicard, true
}

// intervalSource is a local predicate or pushed predicate usable as an index
// start/stop key on one column.
type intervalSource struct {
	lo, hi       *sem.Bound
	loInc, hiInc bool
	sel          float64
	eq           bool
}

// intervalSources collects key-bound candidates on one column.
func (o *Optimizer) intervalSources(col sem.ColumnID, pushed []pushedPred) []intervalSource {
	var out []intervalSource
	var single sem.RelSet
	single = single.Set(col.Rel)
	for _, fi := range o.factors {
		if fi.rels != single || fi.f.Simple == nil || fi.f.Simple.Col != col {
			continue
		}
		if o.cfg.DisableSargs {
			continue
		}
		p := fi.f.Simple
		if p.Ne != nil || (p.Lo == nil && p.Hi == nil) {
			continue
		}
		out = append(out, intervalSource{
			lo: p.Lo, hi: p.Hi, loInc: p.LoInc, hiInc: p.HiInc,
			sel: fi.sel, eq: p.IsEq(),
		})
	}
	for i := range pushed {
		p := &pushed[i]
		if p.innerCol != col {
			continue
		}
		src := intervalSource{sel: p.sel}
		switch p.op {
		case value.OpEq:
			src.lo, src.hi = &p.bound, &p.bound
			src.loInc, src.hiInc = true, true
			src.eq = true
		case value.OpGt:
			src.lo = &p.bound
		case value.OpGe:
			src.lo, src.loInc = &p.bound, true
		case value.OpLt:
			src.hi = &p.bound
		case value.OpLe:
			src.hi, src.hiInc = &p.bound, true
		default:
			continue
		}
		out = append(out, src)
	}
	return out
}

// indexPath builds and costs the scan of one index, matching boolean factors
// against the index key per the paper's rule: sargable predicates on an
// initial substring of the key columns — a run of equalities optionally
// followed by one range.
func (o *Optimizer) indexPath(rel int, ix *catalog.Index, pushed []pushedPred,
	sargs []sem.SargDNF, resExprs []sem.Expr, rsicard, rows float64) pathCand {

	var lo, hi []sem.Bound
	loInc, hiInc := true, true
	matchSel := 1.0
	eqCols := 0
	matched := false

	// Equality prefix.
	pos := 0
	for ; pos < len(ix.ColIdxs); pos++ {
		col := sem.ColumnID{Rel: rel, Col: ix.ColIdxs[pos]}
		found := false
		for _, src := range o.intervalSources(col, pushed) {
			if src.eq {
				lo = append(lo, *src.lo)
				hi = append(hi, *src.hi)
				matchSel *= src.sel
				eqCols++
				matched = true
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	// Optional range on the next key column: combine at most one lower and
	// one upper bound (other predicates on the column remain SARGs).
	if pos < len(ix.ColIdxs) {
		col := sem.ColumnID{Rel: rel, Col: ix.ColIdxs[pos]}
		var rangeLo, rangeHi *sem.Bound
		rLoInc, rHiInc := false, false
		for _, src := range o.intervalSources(col, pushed) {
			if src.eq {
				continue
			}
			used := false
			if src.lo != nil && rangeLo == nil {
				rangeLo, rLoInc = src.lo, src.loInc
				used = true
			}
			if src.hi != nil && rangeHi == nil {
				rangeHi, rHiInc = src.hi, src.hiInc
				used = true
			}
			if used {
				matchSel *= src.sel
				matched = true
			}
		}
		if rangeLo != nil {
			lo = append(lo, *rangeLo)
			loInc = rLoInc
		}
		if rangeHi != nil {
			hi = append(hi, *rangeHi)
			hiInc = rHiInc
		}
	}

	node := &plan.IndexScan{
		Index: ix, RelIdx: rel, RelName: o.blk.Rels[rel].Name,
		Lo: lo, LoInc: loInc, Hi: hi, HiInc: hiInc,
		Sargs: sargs, Residual: resExprs, Matching: matched,
	}
	// matchSel is still 1 when no predicate matched.
	cost := o.indexCost(ix, ix.Unique && eqCols == len(ix.ColIdxs), matchSel, rsicard)
	node.SetEst(plan.Estimate{Cost: cost, Rows: rows})
	return pathCand{
		node: node,
		cost: cost,
		ord:  o.indexOrder(rel, ix.ColIdxs),
		desc: fmt.Sprintf("index %s", ix.Name),
	}
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
