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

	"systemr/internal/catalog"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// pushedPred is a join predicate rewritten as an inner-scan predicate for a
// nested-loop join: a one-term search argument comparing the inner column
// with a runtime parameter that carries the current outer tuple's value. It
// is the inner scan's SARG and, like a local factor, a candidate key bound.
type pushedPred struct {
	sarg sem.SargDNF
	sel  float64 // the originating factor's Table 1 selectivity
}

// localFactors partitions the block's boolean factors local to relation rel
// into sargable and residual sets.
func (o *Optimizer) localFactors(rel int) (sargable, residual []*factorInfo) {
	single := sem.RelSet(0).Set(rel)
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
	all           []solution
	cheapest      *solution
	rsicard, rows float64
}

// genPaths enumerates every access path on relation rel: one per index plus
// the segment scan, with the relation's local boolean factors (and any
// pushed join predicates) applied as search arguments, index start/stop
// keys, or residual filters.
func (o *Optimizer) genPaths(rel int, pushed []pushedPred) accessPaths {
	t := o.blk.Rels[rel].Table
	set := sem.RelSet(0).Set(rel)
	sargable, residual := o.localFactors(rel)
	rsicard, rows := scanCard(t.Stats.EffNCard(), sargable, residual, pushed)

	// Search arguments: one DNF per sargable factor plus one per pushed
	// predicate; the RSS applies their conjunction.
	var sargs []sem.SargDNF
	for _, fi := range sargable {
		sargs = append(sargs, fi.f.SargDNF)
	}
	for _, p := range pushed {
		sargs = append(sargs, p.sarg)
	}
	resExprs := make([]sem.Expr, len(residual))
	for i, fi := range residual {
		resExprs[i] = fi.f.Expr
	}

	seg := &plan.SegScan{Table: t, RelIdx: rel, RelName: o.blk.Rels[rel].Name, Sargs: sargs, Residual: resExprs}
	paths := make([]solution, 1, 1+len(t.Indexes))
	paths[0] = solution{set: set, node: priced(seg, o.scanEst(seg, 1, false, residual, rsicard, rows)), desc: "segment scan"}
	for _, ix := range t.Indexes {
		node, fMatch, unique := o.matchIndex(rel, ix, pushed)
		node.Sargs, node.Residual = sargs, resExprs
		paths = append(paths, solution{
			set:  set,
			ord:  o.indexOrder(rel, ix.ColIdxs),
			node: priced(node, o.scanEst(node, fMatch, unique, residual, rsicard, rows)),
			desc: fmt.Sprintf("index %s", ix.Name),
		})
	}

	best := &paths[0]
	for i := range paths {
		if paths[i].total(o.cfg.W) < best.total(o.cfg.W) {
			best = &paths[i]
		}
	}
	return accessPaths{all: paths, cheapest: best, rsicard: rsicard, rows: rows}
}

// correlatedResidual recognizes a residual factor whose subqueries all
// correlate on a single column of its relation, returning that column and
// the cost of one evaluation of them.
func (o *Optimizer) correlatedResidual(fi *factorInfo) (sem.ColumnID, plan.Cost, bool) {
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
			if !fi.rels.Has(cr.FromCol.Rel) {
				return sem.ColumnID{}, plan.Cost{}, false // spans relations
			}
			if found && cr.FromCol != col {
				return sem.ColumnID{}, plan.Cost{}, false // multiple columns
			}
			col = cr.FromCol
			found = true
		}
		total = total.Add(st.cost)
	}
	return col, total, found
}

// intervalSource is a local predicate or pushed predicate usable as an index
// start/stop key on one column.
type intervalSource struct {
	lo, hi       *sem.Bound
	loInc, hiInc bool
	sel          float64
	eq           bool
}

// intervalSources collects key-bound candidates on one column: the local
// factors and pushed predicates whose search argument is one conjunct of
// terms that all bound it.
func (o *Optimizer) intervalSources(col sem.ColumnID, pushed []pushedPred) []intervalSource {
	var out []intervalSource
	single := sem.RelSet(0).Set(col.Rel)
	for _, fi := range o.factors {
		if fi.rels != single || o.cfg.DisableSargs || len(fi.f.SargDNF) != 1 {
			continue
		}
		// Only "column comparison-operator value" matches an index: an IN
		// list supplies no key, not even IN (v).
		if _, in := fi.f.Expr.(*sem.InList); in {
			continue
		}
		if src, ok := keyInterval(col, fi.f.SargDNF[0], fi.sel); ok {
			out = append(out, src)
		}
	}
	for _, p := range pushed {
		if src, ok := keyInterval(col, p.sarg[0], p.sel); ok {
			out = append(out, src)
		}
	}
	return out
}

// keyInterval reads a conjunct of search-argument terms, whose factor has
// selectivity sel, as a key interval on col. Every term must bound col, so
// a <> term or a term on another column disqualifies the conjunct;
// BETWEEN's >= and <= pair is one interval.
func keyInterval(col sem.ColumnID, conj []sem.SargTerm, sel float64) (intervalSource, bool) {
	src := intervalSource{sel: sel}
	for i := range conj {
		t := &conj[i]
		if t.Col != col {
			return src, false
		}
		switch t.Op {
		case value.OpEq:
			src.lo, src.hi, src.loInc, src.hiInc, src.eq = &t.Val, &t.Val, true, true, true
		case value.OpGt, value.OpGe:
			src.lo, src.loInc = &t.Val, t.Op == value.OpGe
		case value.OpLt, value.OpLe:
			src.hi, src.hiInc = &t.Val, t.Op == value.OpLe
		default:
			return src, false
		}
	}
	return src, true
}

// matchIndex builds the scan of index ix on relation rel, matching boolean
// factors and pushed join predicates against its key per the paper's rule:
// sargable predicates on an initial substring of the key columns — a run of
// equalities optionally followed by one range. It returns the scan, the F
// of the matching predicates (1 when none match) and whether the scan is a
// unique index with every key column equal-matched.
func (o *Optimizer) matchIndex(rel int, ix *catalog.Index, pushed []pushedPred) (*plan.IndexScan, float64, bool) {
	n := &plan.IndexScan{Index: ix, RelIdx: rel, RelName: o.blk.Rels[rel].Name, LoInc: true, HiInc: true}
	sel := 1.0

	// Equality prefix.
	pos := 0
	for ; pos < len(ix.ColIdxs); pos++ {
		col := sem.ColumnID{Rel: rel, Col: ix.ColIdxs[pos]}
		found := false
		for _, src := range o.intervalSources(col, pushed) {
			if src.eq {
				n.Lo = append(n.Lo, *src.lo)
				n.Hi = append(n.Hi, *src.hi)
				sel *= src.sel
				n.Matching = true
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
				sel *= src.sel
				n.Matching = true
			}
		}
		if rangeLo != nil {
			n.Lo = append(n.Lo, *rangeLo)
			n.LoInc = rLoInc
		}
		if rangeHi != nil {
			n.Hi = append(n.Hi, *rangeHi)
			n.HiInc = rHiInc
		}
	}
	return n, sel, ix.Unique && pos == len(ix.ColIdxs)
}
