package core

// Selectivity factors — a verbatim implementation of TABLE 1 of the paper.
// F very roughly corresponds to the expected fraction of tuples satisfying
// the predicate; "we assume that a lack of statistics implies that the
// relation is small, so an arbitrary factor is chosen."

import (
	"math"

	"systemr/internal/catalog"
	"systemr/internal/sem"
)

// Default factors of Table 1.
const (
	// defEq: "column = value ... F = 1/10 otherwise".
	defEq = 1.0 / 10
	// defRange: "column > value ... F = 1/3 otherwise". "There is no
	// significance to this number, other than ... it is less selective than
	// the guesses for equal predicates ... and less than 1/2."
	defRange = 1.0 / 3
	// defBetween: "column BETWEEN ... F = 1/4 otherwise".
	defBetween = 1.0 / 4
	// defUnknown is used for predicate shapes Table 1 does not cover
	// (arithmetic over columns, etc.); like defRange it stays below 1/2
	// ("we hypothesize that few queries use predicates that are satisfied by
	// more than half the tuples").
	defUnknown = 1.0 / 3
	// inListCap: IN-list selectivity "is allowed to be no more than 1/2".
	inListCap = 1.0 / 2
)

// selectivity assigns F to one boolean factor's expression. Whatever the
// branch below produces, the result is clamped to [0, 1]: a selectivity
// factor is a fraction of tuples, and letting a stats anomaly (empty index,
// zero-cardinality relation, inverted min/max, NaN keys) push F outside that
// range corrupts every downstream QCARD and cost product. This return is
// where F is clamped: every boolean factor's F is assigned from it, and every
// other F in the optimizer (a path's RSICARD fraction, an index's matching
// F(preds)) is a product of those factors, so it stays in [0, 1] by
// construction. Estimators under selectivityRaw return raw values.
func (o *Optimizer) selectivity(e sem.Expr) float64 {
	return clamp01(o.selectivityRaw(e))
}

func (o *Optimizer) selectivityRaw(e sem.Expr) float64 {
	switch x := e.(type) {
	case *sem.Bin:
		switch {
		case x.Op == sem.OpAnd:
			// (pred1) AND (pred2): F1*F2 — "assumes column values are
			// independent".
			return o.selectivity(x.L) * o.selectivity(x.R)
		case x.Op == sem.OpOr:
			// (pred1) OR (pred2): F1 + F2 - F1*F2.
			f1, f2 := o.selectivity(x.L), o.selectivity(x.R)
			return f1 + f2 - f1*f2
		case x.Op.IsComparison():
			return o.comparisonSel(x)
		default:
			return defUnknown
		}
	case *sem.Not:
		// NOT pred: F = 1 - F(pred).
		return 1 - o.selectivity(x.E)
	case *sem.Between:
		return o.betweenSel(x)
	case *sem.InList:
		return o.inListSel(x)
	case *sem.InSub:
		return o.inSubSel(x)
	default:
		return defUnknown
	}
}

func clamp01(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// colStats finds index statistics for a column: an analyzed index whose
// leading key column is the given column, preferring analyzed over
// unanalyzed — with two indexes on the same leading column, only one of
// which has statistics, the analyzed one must win or 1/ICARD silently
// degrades to the 1/10 default.
func (o *Optimizer) colStats(id sem.ColumnID) *catalog.IndexStats {
	t := o.blk.Rels[id.Rel].Table
	var first *catalog.IndexStats
	for _, ix := range t.Indexes {
		if ix.ColIdxs[0] != id.Col {
			continue
		}
		if ix.Stats.HasStats {
			return &ix.Stats
		}
		if first == nil {
			first = &ix.Stats
		}
	}
	return first
}

// icardOf returns the distinct-value count for a column — the histogram's
// NDistinct when present (it covers every column, indexed or not), else an
// index's leading-column ICARD, else 0.
func (o *Optimizer) icardOf(id sem.ColumnID) float64 {
	if cs := o.histStats(id); cs != nil {
		return cs.EffNDistinct()
	}
	if st := o.colStats(id); st != nil && st.HasStats {
		return st.EffICardLead()
	}
	return 0
}

func (o *Optimizer) comparisonSel(x *sem.Bin) float64 {
	lcol, lIsCol := x.L.(*sem.Col)
	rcol, rIsCol := x.R.(*sem.Col)
	switch {
	case lIsCol && rIsCol:
		return o.colColSel(x.Op, lcol, rcol)
	case lIsCol:
		return o.colValueSel(x.Op, lcol, x.R)
	case rIsCol:
		return o.colValueSel(x.Op.Flip(), rcol, x.L)
	default:
		// Neither side is a bare column (arithmetic over columns, constants):
		// Table 1 has no entry; use the unknown default, except constant-only
		// comparisons which fold exactly.
		if lv, ok := o.literal(x.L); ok {
			if rv, ok := o.literal(x.R); ok {
				if x.Op.CmpOp().Apply(lv, rv) {
					return 1
				}
				return 0
			}
		}
		if x.Op == sem.OpEq {
			return defEq
		}
		return defUnknown
	}
}

// colColSel: "column1 = column2":
//
//	F = 1/MAX(ICARD(column1 index), ICARD(column2 index)) with both indexes
//	("assumes that each key value in the index with the smaller cardinality
//	has a matching value in the other index"),
//	F = 1/ICARD(column-i index) with one index, F = 1/10 otherwise.
//
// Non-equality column comparisons fall back to the open-ended default.
func (o *Optimizer) colColSel(op sem.BinOp, l, r *sem.Col) float64 {
	if op != sem.OpEq && op != sem.OpNe {
		return defRange
	}
	eq := func() float64 {
		li, ri := o.icardOf(l.ID), o.icardOf(r.ID)
		switch {
		case li > 0 && ri > 0:
			return 1 / math.Max(li, ri)
		case li > 0:
			return 1 / li
		case ri > 0:
			return 1 / ri
		default:
			return defEq
		}
	}()
	if op == sem.OpNe {
		return 1 - eq
	}
	return eq
}

// colValueSel covers "column op value" where value is a constant, parameter,
// or subquery result. Estimation precedence: histogram → index statistics →
// Table 1 default (see histsel.go).
func (o *Optimizer) colValueSel(op sem.BinOp, col *sem.Col, other sem.Expr) float64 {
	switch op {
	case sem.OpEq:
		// Histogram: bucket-weighted 1/d. Index: F = 1/ICARD(column index) —
		// "assumes an even distribution of tuples among the index key
		// values". Otherwise 1/10.
		return o.eqSel(col, other)
	case sem.OpNe:
		return 1 - o.eqSel(col, other)
	default:
		// Open-ended comparison with a known value: bucket-fraction
		// interpolation from the histogram, else linear interpolation
		// between the index's low and high keys (arithmetic columns only).
		v, known := o.constOperand(other)
		if known {
			if cs := o.histStats(col.ID); cs != nil {
				if sel, ok := o.histRangeSel(cs, op, v); ok {
					return sel
				}
			}
		}
		st := o.colStats(col.ID)
		if !known || st == nil || !st.HasStats {
			return defRange
		}
		if !col.Typ.Arithmetic() || !v.Kind.Arithmetic() {
			return defRange
		}
		low, high, ok := keyRange(st)
		if !ok {
			return defRange
		}
		// Interpolated estimates are floored at one key's worth of rows:
		// a constant outside [low, high] — always possible once statistics
		// go stale — must clamp to the floor, not to zero.
		floor := 1 / st.EffICardLead()
		vf := v.AsFloat()
		switch op {
		case sem.OpGt, sem.OpGe:
			return math.Max((high-vf)/(high-low), floor)
		default: // OpLt, OpLe
			return math.Max((vf-low)/(high-low), floor)
		}
	}
}

// keyRange returns an index's analyzed low and high keys as floats, with ok
// false when they bound no usable range and Table 1's default applies: a
// non-arithmetic key, or a width high - low that is not both positive and
// finite. That covers inverted keys and non-finite ones: a FLOAT column can
// store NaN, which sorts lowest and so becomes the low key, and a plain
// high <= low test is false for NaN.
func keyRange(st *catalog.IndexStats) (low, high float64, ok bool) {
	if !st.High.Kind.Arithmetic() || !st.Low.Kind.Arithmetic() {
		return 0, 0, false
	}
	low, high = st.Low.AsFloat(), st.High.AsFloat()
	w := high - low
	return low, high, w > 0 && !math.IsInf(w, 1)
}

// betweenSel: "column BETWEEN value1 AND value2":
//
//	F = (value2 - value1) / (high key - low key)
//
// when the column is arithmetic and both values are known, else 1/4. A
// histogram, when present, answers first with the bucket-fraction difference
// LeRows(hi) - LtRows(lo).
func (o *Optimizer) betweenSel(x *sem.Between) float64 {
	f := func() float64 {
		col, ok := x.E.(*sem.Col)
		if !ok {
			return defBetween
		}
		loV, loOK := o.constOperand(x.Lo)
		hiV, hiOK := o.constOperand(x.Hi)
		if loOK && hiOK {
			if cs := o.histStats(col.ID); cs != nil {
				if sel, ok := o.histBetweenSel(cs, loV, hiV); ok {
					return sel
				}
			}
		}
		st := o.colStats(col.ID)
		if !loOK || !hiOK || st == nil || !st.HasStats ||
			!col.Typ.Arithmetic() || !loV.Kind.Arithmetic() || !hiV.Kind.Arithmetic() {
			return defBetween
		}
		low, high, ok := keyRange(st)
		if !ok {
			return defBetween
		}
		// Only the window's overlap with the analyzed [low, high] key range
		// counts — a window hanging past either end (or entirely outside)
		// must not inflate the ratio. Floored like open-ended ranges: a
		// window beyond stale statistics estimates one key's rows, not zero.
		// F needs no clamp before NOT BETWEEN takes the complement: the
		// constants are finite (the lexer rejects out-of-range literals) and
		// keyRange's width is finite and positive, so the overlap is at most
		// that width and F lies in [floor, 1], with floor in (0, 1].
		floor := 1 / st.EffICardLead()
		overlap := math.Min(hiV.AsFloat(), high) - math.Max(loV.AsFloat(), low)
		return math.Max(overlap/(high-low), floor)
	}()
	if x.Negated {
		return 1 - f
	}
	return f
}

// inListSel: "column IN (list of values)":
//
//	F = (number of items in list) * (selectivity factor for column = value),
//
// allowed to be no more than 1/2. With a histogram each list item gets its
// own per-item estimate (the items need not be equally common), summed.
//
// The 1/2 cap applies only to the positive form: it encodes "an IN list
// rarely matches more than half the table", which says nothing about NOT IN.
// The negated form is 1 - (uncapped sum), which selectivity clamps at 0 when
// the items cover every key — capping first would floor every NOT IN at 1/2
// no matter how wide the list.
func (o *Optimizer) inListSel(x *sem.InList) float64 {
	var sum float64
	if col, ok := x.E.(*sem.Col); ok {
		for _, item := range x.List {
			sum += o.eqSel(col, item)
		}
	} else {
		sum = float64(len(x.List)) * defEq
	}
	if x.Negated {
		return 1 - sum
	}
	return math.Min(sum, inListCap)
}

// inSubSel: "columnA IN subquery":
//
//	F = (expected cardinality of the subquery result) /
//	    (product of the cardinalities of all the relations in the
//	     subquery's FROM-list).
func (o *Optimizer) inSubSel(x *sem.InSub) float64 {
	f := defUnknown
	if st, ok := o.subInfo[x.Sub]; ok && st.relProd > 0 {
		f = st.qcard / st.relProd
	}
	if x.Negated {
		return 1 - f
	}
	return f
}
