package core

// Join enumeration — Section 5. The search finds the best join order for
// successively larger subsets of relations: "First, the best way is found to
// access each single relation for each interesting tuple ordering and for
// the unordered case. Next, the best way of joining any relation to these is
// found, subject to the heuristics for join order" — and so on. Per subset,
// the cheapest unordered solution and the cheapest solution per interesting
// order equivalence class are kept; joins requiring Cartesian products are
// deferred as late as possible.

import (
	"sort"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// solution is one plan for a subset of relations, costed by its node's
// estimate.
type solution struct {
	set  sem.RelSet
	ord  order // ordering of the produced composite tuples
	node plan.Node
	desc string
}

// total is the solution's weighted cost.
func (s *solution) total(w float64) float64 { return s.node.Est().Cost.Total(w) }

// sortSolution sorts sol into order req through a temporary list holding
// rows tuples.
func (o *Optimizer) sortSolution(sol *solution, req order, rows float64) solution {
	n := &plan.Sort{Input: sol.node, Keys: o.sortKeysFor(req, sol.set)}
	e := o.sortEst(sol.node.Est(), rows, o.setWidth(sol.set))
	return solution{set: sol.set, ord: req, node: priced(n, e), desc: "sort " + sol.desc}
}

// subsetSols holds the retained solutions for one subset: the composite
// cardinality (identical for every join order of the subset), the order
// equivalence classes valid within the subset (only applied equi-join
// predicates equate columns), and the cheapest solution per canonical order
// slot ("" = cheapest regardless of order).
type subsetSols struct {
	card    float64
	classes *orderClasses
	best    map[string]*solution
}

// SearchStats quantifies the optimizer's own work for the paper's
// conclusion-section claims (E9): solutions stored ≤ 2^n × interesting
// orders, optimization cost equivalent to a handful of retrievals.
type SearchStats struct {
	CandidatesConsidered int
	SolutionsStored      int
	SubsetsExpanded      int
}

// Stats returns the search statistics of the last Optimize call.
func (o *Optimizer) Stats() SearchStats { return o.searchStats }

// propose offers a candidate solution for a subset; it is retained if it is
// the new cheapest for the unordered slot or for any interesting order its
// produced ordering satisfies.
func (o *Optimizer) propose(ss *subsetSols, cand *solution) bool {
	o.searchStats.CandidatesConsidered++
	w := o.cfg.W
	kept := false
	if cur, ok := ss.best[""]; !ok || cand.total(w) < cur.total(w) {
		if !ok {
			o.searchStats.SolutionsStored++
		}
		ss.best[""] = cand
		kept = true
	}
	// Orders compare under the subset's own equivalence classes: a column
	// equated by an applied join predicate stands in for its peers, but
	// not-yet-applied predicates equate nothing.
	candCanon := canonical(cand.ord, ss.classes)
	for _, io := range o.interest {
		ioCanon := canonical(io, ss.classes)
		if !candCanon.satisfies(ioCanon) {
			continue
		}
		k := ioCanon.key()
		if cur, ok := ss.best[k]; !ok || cand.total(w) < cur.total(w) {
			if !ok {
				o.searchStats.SolutionsStored++
			}
			ss.best[k] = cand
			kept = true
		}
	}
	o.cfg.Trace.candidate(o, cand, kept)
	return kept
}

// distinctSolutions returns the subset's retained solutions without
// duplicates, in deterministic order.
func (ss *subsetSols) distinctSolutions() []*solution {
	keys := make([]string, 0, len(ss.best))
	for k := range ss.best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*solution
	seen := map[*solution]bool{}
	for _, k := range keys {
		s := ss.best[k]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// search runs the dynamic program and returns the chosen solution for the
// full FROM list, including a final sort when the required order cannot be
// met more cheaply by an ordered solution.
func (o *Optimizer) search() (*solution, error) {
	o.searchStats = SearchStats{}
	n := len(o.blk.Rels)
	w := o.cfg.W
	sols := make(map[sem.RelSet]*subsetSols)

	// Level 1: single-relation access paths, kept for every join step that
	// adds the relation.
	level1 := make([]accessPaths, n)
	for r := 0; r < n; r++ {
		s := sem.RelSet(0).Set(r)
		ss := &subsetSols{card: o.cardOf(s), classes: o.classesFor(s), best: make(map[string]*solution)}
		sols[s] = ss
		o.cfg.Trace.enterSubset(o, s)
		level1[r] = o.genPaths(r, nil)
		for i := range level1[r].all {
			o.propose(ss, &level1[r].all[i])
		}
	}

	// Levels 2..n: extend every retained subset by one relation.
	for size := 2; size <= n; size++ {
		// Deterministic subset order.
		var prev []sem.RelSet
		for s := range sols {
			if s.Count() == size-1 {
				prev = append(prev, s)
			}
		}
		sort.Slice(prev, func(i, j int) bool { return prev[i] < prev[j] })
		for _, s := range prev {
			o.searchStats.SubsetsExpanded++
			for r := 0; r < n; r++ {
				if s.Has(r) || !o.joinAllowed(s, r) {
					continue
				}
				s2 := s.Set(r)
				ss2, ok := sols[s2]
				if !ok {
					ss2 = &subsetSols{card: o.cardOf(s2), classes: o.classesFor(s2), best: make(map[string]*solution)}
					sols[s2] = ss2
					o.cfg.Trace.enterSubset(o, s2)
				}
				o.joinCandidates(sols[s], s, r, ss2, &level1[r])
			}
		}
	}

	full := sem.RelSet(0)
	for r := 0; r < n; r++ {
		full = full.Set(r)
	}
	ss, ok := sols[full]
	if !ok || ss.best[""] == nil {
		return nil, errNoPlan
	}

	// Final order requirement: "the optimizer chooses the cheapest solution
	// which gives the required order ... no sort is performed unless the
	// ordered solution is more expensive than the cheapest unordered solution
	// plus the cost of sorting into the required order."
	req := o.requiredOrder()
	if len(req) == 0 {
		return ss.best[""], nil
	}
	ordered := ss.best[canonical(req, ss.classes).key()]
	cheapest := ss.best[""]
	sortTotal := o.sortEst(cheapest.node.Est(), ss.card, o.setWidth(full)).Cost.Total(w)
	if ordered != nil && ordered.total(w) <= sortTotal {
		return ordered, nil
	}
	sorted := o.sortSolution(cheapest, req, ss.card)
	return &sorted, nil
}

// joinAllowed implements the join-order heuristic: relation r may extend
// subset s only if a join predicate relates it to s, unless no remaining
// relation is so related (Cartesian products as late as possible).
func (o *Optimizer) joinAllowed(s sem.RelSet, r int) bool {
	if o.cfg.DisableJoinHeuristic {
		return true
	}
	if o.connected(s, r) {
		return true
	}
	for other := 0; other < len(o.blk.Rels); other++ {
		if !s.Has(other) && o.connected(s, other) {
			return false // some relation does have a join predicate with s
		}
	}
	return true
}

// connected reports whether any join predicate relates relation r to the
// subset s.
func (o *Optimizer) connected(s sem.RelSet, r int) bool {
	for _, fi := range o.factors {
		if fi.rels.Count() < 2 || !fi.rels.Has(r) {
			continue
		}
		if fi.rels&s != 0 {
			return true
		}
	}
	return false
}

// equiJoin is an equi-join predicate applicable at a join step, oriented so
// innerCol belongs to the relation being added. Merging scans and hash joins
// use it as the join predicate and apply every other predicate of the step
// as a residual ("one of them is used as the join predicate and the others
// are treated as ordinary predicates").
type equiJoin struct {
	fi                 *factorInfo
	innerCol, outerCol sem.ColumnID
	residual           []sem.Expr
}

// joinCandidates proposes every way of joining relation r (whose level-1
// access paths are acc) to subset s: nested loops against each retained outer
// solution, and merging scans and hash joins on each applicable equi-join
// predicate, merging with sort/no-sort alternatives on both sides.
func (o *Optimizer) joinCandidates(ssOuter *subsetSols, s sem.RelSet, r int, ss2 *subsetSols, acc *accessPaths) {
	s2 := s.Set(r)
	rOnly := sem.RelSet(0).Set(r)

	// Predicates that become applicable at this join.
	var applicable []*factorInfo
	for _, fi := range o.factors {
		if s2.Contains(fi.rels) && !s.Contains(fi.rels) && !rOnly.Contains(fi.rels) {
			applicable = append(applicable, fi)
		}
	}
	var equis []equiJoin
	for _, fi := range applicable {
		ej := fi.f.EquiJoin
		if ej == nil {
			continue
		}
		e := equiJoin{fi: fi}
		switch {
		case ej.Left.Rel == r && s.Has(ej.Right.Rel):
			e.innerCol, e.outerCol = ej.Left, ej.Right
		case ej.Right.Rel == r && s.Has(ej.Left.Rel):
			e.innerCol, e.outerCol = ej.Right, ej.Left
		default:
			continue
		}
		for _, other := range applicable {
			if other != fi {
				e.residual = append(e.residual, other.f.Expr)
			}
		}
		equis = append(equis, e)
	}

	rows := ss2.card
	nOuter := ssOuter.card

	// ---- Nested loops ----
	// Merging scans apply only to equi-joins, so a step without one uses
	// nested loops even when the configuration prefers merge.
	if o.cfg.Joins != MergeOnly || len(equis) == 0 {
		var pushed []pushedPred
		var binds []plan.ParamBind
		var residual []sem.Expr
		for _, fi := range applicable {
			if ic, oc, op, ok := o.pushable(fi, s, r); ok && !o.cfg.DisableSargs {
				pid := o.nextParam
				o.nextParam++
				term := sem.SargTerm{Col: ic, Op: op, Val: sem.Bound{Kind: sem.BoundParam, Param: pid}}
				pushed = append(pushed, pushedPred{sarg: sem.SargDNF{{term}}, sel: fi.sel})
				binds = append(binds, plan.ParamBind{Param: pid, From: oc})
			} else {
				residual = append(residual, fi.f.Expr)
			}
		}
		// Cheapest inner path: the inner's ordering is irrelevant for nested
		// loops (the composite's order is the outer's order). Only pushed
		// join predicates make its access paths differ from level 1's.
		inner := acc.cheapest
		if len(pushed) > 0 {
			inner = o.genPaths(r, pushed).cheapest
		}
		for _, outer := range ssOuter.distinctSolutions() {
			node := &plan.NLJoin{Outer: outer.node, Inner: inner.node, Binds: binds, Residual: residual}
			o.propose(ss2, &solution{
				set: s2, ord: outer.ord,
				node: priced(node, nlJoinEst(outer.node.Est(), inner.node.Est(), nOuter, rows)),
				desc: "nested loops (" + outer.desc + " ⋈ " + inner.desc + ")",
			})
		}
	}

	// ---- Merging scans (equi-joins only) ----
	if o.cfg.Joins == NestedLoopsOnly {
		return
	}
	for _, ej := range equis {
		mergeOrd := order{orderEl{class: ej.innerCol}}
		outerOrd := order{orderEl{class: ej.outerCol}}

		// Outer alternatives: an already-ordered solution, or sort the
		// cheapest unordered one into a temporary list.
		outers := make([]solution, 0, 2)
		if sol, ok := ssOuter.best[canonical(outerOrd, ssOuter.classes).key()]; ok {
			outers = append(outers, *sol)
		}
		if cheapest, ok := ssOuter.best[""]; ok {
			outers = append(outers, o.sortSolution(cheapest, outerOrd, nOuter))
		}
		// Inner alternatives: index scans already in join-column order, or
		// the cheapest inner path sorted into a temporary list, each temp
		// page fetched once during the merge (the C_inner(sorted list) case).
		var inners []solution
		for _, p := range acc.all {
			if p.ord.satisfies(mergeOrd) {
				inners = append(inners, p)
			}
		}
		inners = append(inners, o.sortSolution(acc.cheapest, mergeOrd, acc.rows))

		for _, out := range outers {
			for _, in := range inners {
				node := &plan.MergeJoin{
					Outer: out.node, Inner: in.node,
					OuterCol: ej.outerCol, InnerCol: ej.innerCol,
					Residual: ej.residual,
				}
				e := o.mergeJoinEst(out.node.Est(), in.node, in.node.Est(), ej.fi.sel, acc.rsicard, nOuter, rows)
				o.propose(ss2, &solution{
					set: s2, ord: out.ord, node: priced(node, e),
					desc: "merge scan (" + out.desc + " ⋈ " + in.desc + ")",
				})
			}
		}
	}

	// ---- Hash join (equi-joins only) ----
	// No interesting order is produced (probing scrambles nothing today, but
	// order is deliberately not promised), so a downstream order requirement
	// is won by merge and order-free joins by hash.
	if o.cfg.Joins == MergeOnly || len(equis) == 0 {
		return
	}
	outer := ssOuter.best[""]
	base := acc.cheapest
	e := o.hashJoinEst(outer.node.Est(), base.node.Est(), o.rowWidth(r), nOuter, rows)
	for _, ej := range equis {
		node := &plan.HashJoin{
			Outer: outer.node, Inner: base.node,
			OuterCol: ej.outerCol, InnerCol: ej.innerCol,
			Residual: ej.residual, BuildRows: acc.rows,
		}
		o.propose(ss2, &solution{
			set: s2, node: priced(node, e),
			desc: "hash join (" + outer.desc + " ⋈ " + base.desc + ")",
		})
	}
}

// pushable reports whether a factor can be applied on the inner relation of
// a nested-loop join as "innerCol op $outerValue": a single comparison with
// one side a column of r and the other a column of the outer subset.
func (o *Optimizer) pushable(fi *factorInfo, s sem.RelSet, r int) (innerCol, outerCol sem.ColumnID, op value.CmpOp, ok bool) {
	b, isBin := fi.f.Expr.(*sem.Bin)
	if !isBin || !b.Op.IsComparison() {
		return sem.ColumnID{}, sem.ColumnID{}, 0, false
	}
	l, lok := b.L.(*sem.Col)
	rr, rok := b.R.(*sem.Col)
	if !lok || !rok {
		return sem.ColumnID{}, sem.ColumnID{}, 0, false
	}
	switch {
	case l.ID.Rel == r && s.Has(rr.ID.Rel):
		return l.ID, rr.ID, b.Op.CmpOp(), true
	case rr.ID.Rel == r && s.Has(l.ID.Rel):
		return rr.ID, l.ID, b.Op.CmpOp().Flip(), true
	default:
		return sem.ColumnID{}, sem.ColumnID{}, 0, false
	}
}
