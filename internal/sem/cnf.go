package sem

import "systemr/internal/value"

// Conversion of the WHERE tree to conjunctive normal form and classification
// of the resulting boolean factors (Section 4): sargable predicates, join
// predicates, and general residuals, plus the DNF search-argument form the
// RSS accepts.

// pushNot drives negations down to the leaves: comparisons flip their
// operator, BETWEEN/IN flip their Negated flag, AND/OR dualize. The result
// contains Not only around irreducible predicates (none, with our grammar).
func pushNot(e Expr, neg bool) Expr {
	switch x := e.(type) {
	case *Not:
		return pushNot(x.E, !neg)
	case *Bin:
		switch {
		case x.Op == OpAnd:
			l, r := pushNot(x.L, neg), pushNot(x.R, neg)
			if neg {
				return &Bin{Op: OpOr, L: l, R: r}
			}
			return &Bin{Op: OpAnd, L: l, R: r}
		case x.Op == OpOr:
			l, r := pushNot(x.L, neg), pushNot(x.R, neg)
			if neg {
				return &Bin{Op: OpAnd, L: l, R: r}
			}
			return &Bin{Op: OpOr, L: l, R: r}
		case x.Op.IsComparison() && neg:
			return &Bin{Op: negateCmp(x.Op), L: x.L, R: x.R}
		default:
			return x
		}
	case *Between:
		if neg {
			return &Between{E: x.E, Lo: x.Lo, Hi: x.Hi, Negated: !x.Negated}
		}
		return x
	case *InList:
		if neg {
			return &InList{E: x.E, List: x.List, Negated: !x.Negated}
		}
		return x
	case *InSub:
		if neg {
			return &InSub{E: x.E, Sub: x.Sub, Negated: !x.Negated}
		}
		return x
	default:
		if neg {
			return &Not{E: e}
		}
		return e
	}
}

func negateCmp(op BinOp) BinOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// conjuncts flattens top-level ANDs: each element is one boolean factor.
// (As in System R, the WHERE tree is "considered to be in conjunctive normal
// form" — we do not distribute OR over AND.)
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
}

// exprInfo accumulates what an expression references.
type exprInfo struct {
	rels      RelSet
	usesParam bool
	subs      []*Subquery
}

func scanExpr(e Expr, info *exprInfo) {
	switch x := e.(type) {
	case *Col:
		info.rels = info.rels.Set(x.ID.Rel)
	case *Param:
		info.usesParam = true
	case *Const, *AggRef:
	case *Bin:
		scanExpr(x.L, info)
		scanExpr(x.R, info)
	case *Not:
		scanExpr(x.E, info)
	case *Neg:
		scanExpr(x.E, info)
	case *Between:
		scanExpr(x.E, info)
		scanExpr(x.Lo, info)
		scanExpr(x.Hi, info)
	case *InList:
		scanExpr(x.E, info)
		for _, le := range x.List {
			scanExpr(le, info)
		}
	case *InSub:
		scanExpr(x.E, info)
		info.subs = append(info.subs, x.Sub)
	case *ScalarSub:
		info.subs = append(info.subs, x.Sub)
	}
}

// RelsOf returns the block-local relations referenced by an expression.
func RelsOf(e Expr) RelSet {
	var info exprInfo
	scanExpr(e, &info)
	return info.rels
}

// classify builds a BoolFactor from one conjunct: it records the referenced
// relations, recognizes the single sargable predicate and equi-join shapes,
// and derives the DNF search-argument form when the whole factor is sargable.
func (a *analyzer) classify(e Expr) *BoolFactor {
	var info exprInfo
	scanExpr(e, &info)
	f := &BoolFactor{Expr: e, Rels: info.rels, UsesParam: info.usesParam, Subs: info.subs}
	// A subquery correlated on a column of THIS block makes the factor
	// depend on that column's relation: it can only be evaluated once that
	// relation has been joined in. (Pass-through correlations to outer
	// blocks surface as CorrelRefs of this block itself, not here.)
	for _, sub := range info.subs {
		for _, cr := range sub.Block.CorrelRefs {
			if !cr.FromParam {
				f.Rels = f.Rels.Set(cr.FromCol.Rel)
			}
		}
	}
	f.Simple = a.simplePred(e)
	f.EquiJoin = equiJoin(e)
	if f.Rels.Count() == 1 {
		if dnf, ok := a.sargDNF(e, f.Rels.Single()); ok {
			f.SargDNF = dnf
		}
	}
	return f
}

// boundOf converts an expression to a pre-scan-bindable Bound: a constant, a
// correlation parameter (constant during one execution of this block), or a
// scalar subquery that does not correlate on this block. Constant arithmetic
// is folded.
func (a *analyzer) boundOf(e Expr) (Bound, bool) {
	switch x := e.(type) {
	case *Const:
		return Bound{Kind: BoundConst, Val: x.Val}, true
	case *Param:
		return Bound{Kind: BoundParam, Param: x.ID}, true
	case *Neg:
		inner, ok := a.boundOf(x.E)
		if !ok || inner.Kind != BoundConst {
			return Bound{}, false
		}
		v := inner.Val
		switch v.Kind {
		case value.KindNull:
			return inner, true
		case value.KindInt:
			return Bound{Kind: BoundConst, Val: value.NewInt(-v.Int)}, true
		case value.KindFloat:
			return Bound{Kind: BoundConst, Val: value.NewFloat(-v.Float)}, true
		}
		return Bound{}, false
	case *ScalarSub:
		// Bindable only when the subquery does not reference THIS block's
		// relations: its value is then fixed for the whole execution.
		for _, cr := range x.Sub.Block.CorrelRefs {
			if !cr.FromParam {
				return Bound{}, false
			}
		}
		return Bound{Kind: BoundSub, Sub: x.Sub}, true
	default:
		return Bound{}, false
	}
}

// simplePred recognizes "column comparison-operator value" (and BETWEEN) in
// interval form — the shape that can match an index and define start/stop
// keys.
func (a *analyzer) simplePred(e Expr) *SimplePred {
	switch x := e.(type) {
	case *Bin:
		if !x.Op.IsComparison() {
			return nil
		}
		col, colOK := x.L.(*Col)
		other := x.R
		op := x.Op
		if !colOK {
			col, colOK = x.R.(*Col)
			other = x.L
			if !colOK {
				return nil
			}
			op = op.Flip()
		}
		if _, isCol := other.(*Col); isCol {
			return nil // column = column is a join or intra-relation predicate
		}
		b, ok := a.boundOf(other)
		if !ok {
			return nil
		}
		p := &SimplePred{Col: col.ID}
		switch op {
		case OpEq:
			p.Lo, p.Hi = &b, &b
			p.LoInc, p.HiInc = true, true
		case OpNe:
			p.Ne = &b
		case OpLt:
			p.Hi = &b
		case OpLe:
			p.Hi, p.HiInc = &b, true
		case OpGt:
			p.Lo = &b
		case OpGe:
			p.Lo, p.LoInc = &b, true
		}
		return p
	case *Between:
		if x.Negated {
			return nil
		}
		col, ok := x.E.(*Col)
		if !ok {
			return nil
		}
		lo, okLo := a.boundOf(x.Lo)
		hi, okHi := a.boundOf(x.Hi)
		if !okLo || !okHi {
			return nil
		}
		return &SimplePred{Col: col.ID, Lo: &lo, Hi: &hi, LoInc: true, HiInc: true}
	default:
		return nil
	}
}

// equiJoin recognizes T1.c1 = T2.c2 across two distinct relations.
func equiJoin(e Expr) *EquiJoinPred {
	b, ok := e.(*Bin)
	if !ok || b.Op != OpEq {
		return nil
	}
	l, lok := b.L.(*Col)
	r, rok := b.R.(*Col)
	if !lok || !rok || l.ID.Rel == r.ID.Rel {
		return nil
	}
	return &EquiJoinPred{Left: l.ID, Right: r.ID}
}

// maxSargDisjuncts bounds DNF expansion; factors beyond it stay residual.
const maxSargDisjuncts = 32

// sargDNF converts a single-relation factor into the RSS's search-argument
// form: a DNF of (column op value) terms, or reports that the factor is not
// sargable (e.g. it compares two columns, or involves arithmetic on a
// column).
func (a *analyzer) sargDNF(e Expr, rel int) ([][]SargTerm, bool) {
	switch x := e.(type) {
	case *Bin:
		switch x.Op {
		case OpAnd:
			l, ok := a.sargDNF(x.L, rel)
			if !ok {
				return nil, false
			}
			r, ok := a.sargDNF(x.R, rel)
			if !ok {
				return nil, false
			}
			if len(l)*len(r) > maxSargDisjuncts {
				return nil, false
			}
			var out [][]SargTerm
			for _, dl := range l {
				for _, dr := range r {
					conj := make([]SargTerm, 0, len(dl)+len(dr))
					conj = append(conj, dl...)
					conj = append(conj, dr...)
					out = append(out, conj)
				}
			}
			return out, true
		case OpOr:
			l, ok := a.sargDNF(x.L, rel)
			if !ok {
				return nil, false
			}
			r, ok := a.sargDNF(x.R, rel)
			if !ok {
				return nil, false
			}
			if len(l)+len(r) > maxSargDisjuncts {
				return nil, false
			}
			return append(l, r...), true
		default:
			return a.sargLeaf(e, rel)
		}
	default:
		return a.sargLeaf(e, rel)
	}
}

func (a *analyzer) sargLeaf(e Expr, rel int) ([][]SargTerm, bool) {
	switch x := e.(type) {
	case *Bin:
		if !x.Op.IsComparison() {
			return nil, false
		}
		col, colOK := x.L.(*Col)
		other := x.R
		op := x.Op
		if !colOK {
			col, colOK = x.R.(*Col)
			other = x.L
			if !colOK {
				return nil, false
			}
			op = op.Flip()
		}
		if col.ID.Rel != rel {
			return nil, false
		}
		b, ok := a.boundOf(other)
		if !ok {
			return nil, false
		}
		return [][]SargTerm{{{Col: col.ID, Op: op.CmpOp(), Val: b}}}, true
	case *Between:
		col, ok := x.E.(*Col)
		if !ok || col.ID.Rel != rel {
			return nil, false
		}
		lo, okLo := a.boundOf(x.Lo)
		hi, okHi := a.boundOf(x.Hi)
		if !okLo || !okHi {
			return nil, false
		}
		ge := SargTerm{Col: col.ID, Op: value.OpGe, Val: lo}
		le := SargTerm{Col: col.ID, Op: value.OpLe, Val: hi}
		if x.Negated {
			lt := SargTerm{Col: col.ID, Op: value.OpLt, Val: lo}
			gt := SargTerm{Col: col.ID, Op: value.OpGt, Val: hi}
			return [][]SargTerm{{lt}, {gt}}, true
		}
		return [][]SargTerm{{ge, le}}, true
	case *InList:
		col, ok := x.E.(*Col)
		if !ok || col.ID.Rel != rel {
			return nil, false
		}
		if x.Negated {
			// NOT IN: conjunction of <> terms — one disjunct.
			conj := make([]SargTerm, 0, len(x.List))
			for _, le := range x.List {
				b, ok := a.boundOf(le)
				if !ok {
					return nil, false
				}
				conj = append(conj, SargTerm{Col: col.ID, Op: value.OpNe, Val: b})
			}
			return [][]SargTerm{conj}, true
		}
		if len(x.List) > maxSargDisjuncts {
			return nil, false
		}
		var out [][]SargTerm
		for _, le := range x.List {
			b, ok := a.boundOf(le)
			if !ok {
				return nil, false
			}
			out = append(out, []SargTerm{{Col: col.ID, Op: value.OpEq, Val: b}})
		}
		return out, true
	default:
		return nil, false
	}
}
