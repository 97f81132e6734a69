package core

// Histogram-based selectivity: the estimation layer between a predicate and
// Table 1. Every column-vs-value decision consults, in precedence order,
//
//  1. the column's equi-depth histogram (catalog.ColStats, built by UPDATE
//     STATISTICS for every column, indexed or not),
//  2. the leading-column ICARD of an index on the column (the paper's
//     original statistics), and
//  3. the Table 1 default for the predicate shape.
//
// Histogram answers come back as row counts; the fraction is computed here
// and, like every F, clamped to [0, 1] by selectivity's return. Out-of-range
// constants (possible whenever statistics are stale relative to the data)
// are floored at one key's worth of rows rather than rounding to zero, so a
// point query past a stale high key never plans against QCARD 0.

import (
	"math"

	"systemr/internal/catalog"
	"systemr/internal/sem"
	"systemr/internal/value"
)

// histStats returns the column's histogram statistics, or nil when
// histograms are disabled, the relation is unanalyzed, or the column's rows
// could not be profiled.
func (o *Optimizer) histStats(id sem.ColumnID) *catalog.ColStats {
	if o.cfg.DisableHistograms {
		return nil
	}
	t := o.blk.Rels[id.Rel].Table
	if id.Col >= len(t.ColStats) {
		return nil
	}
	cs := &t.ColStats[id.Col]
	if !cs.HasStats {
		return nil
	}
	return cs
}

// literal returns the value of a constant operand, the only operand shape
// whose value is known at access path selection time: a literal, or a
// lifted one, whose value comes from o.lits when a Classifier sets them.
// A host variable compiled without a value (its Val is NULL, which sql.Lift
// never lifts) is unknown, like a parameter.
func (o *Optimizer) literal(e sem.Expr) (value.Value, bool) {
	c, ok := e.(*sem.Const)
	if !ok || c.Lift > 0 && c.Val.IsNull() {
		return value.Value{}, false
	}
	return c.Value(o.lits), true
}

// constOperand extracts a non-null constant from an expression.
func (o *Optimizer) constOperand(e sem.Expr) (value.Value, bool) {
	v, ok := o.literal(e)
	if !ok || v.IsNull() {
		return value.Value{}, false
	}
	return v, true
}

// eqSel estimates "col = other" through the full precedence chain. With a
// histogram and a known constant it is the bucket-weighted 1/d: the
// containing bucket's rows-per-key over the row count. With an unknown value
// (parameter, subquery result) it is 1/NDistinct from the column statistics,
// then 1/ICARD from an index, then the 1/10 default.
func (o *Optimizer) eqSel(col *sem.Col, other sem.Expr) float64 {
	if cs := o.histStats(col.ID); cs != nil {
		if v, known := o.constOperand(other); known && cs.Hist != nil && cs.Hist.NRows > 0 {
			rows, inRange := cs.Hist.EqRows(v)
			if !inRange {
				// Outside the analyzed key range: the statistics may simply
				// be stale, so floor at one key's worth of rows.
				return 1 / cs.EffNDistinct()
			}
			return rows / cs.Hist.TotalRows()
		}
		return 1 / cs.EffNDistinct()
	}
	if st := o.colStats(col.ID); st != nil && st.HasStats {
		return 1 / st.EffICardLead()
	}
	return defEq
}

// histRangeSel estimates an open-ended comparison from the histogram,
// returning ok=false when the histogram cannot answer (no histogram, empty,
// or a non-range operator). The result is floored at one key's worth of
// rows: a range that selects nothing observed may still match rows inserted
// since statistics ran.
func (o *Optimizer) histRangeSel(cs *catalog.ColStats, op sem.BinOp, v value.Value) (float64, bool) {
	h := cs.Hist
	if h == nil || h.NRows <= 0 {
		return 0, false
	}
	total := h.TotalRows()
	var rows float64
	switch op {
	case sem.OpGt:
		rows = total - h.LeRows(v)
	case sem.OpGe:
		rows = total - h.LtRows(v)
	case sem.OpLt:
		rows = h.LtRows(v)
	case sem.OpLe:
		rows = h.LeRows(v)
	default:
		return 0, false
	}
	return math.Max(rows/total, rowFloor(cs, total)), true
}

// rowFloor is the minimum fraction any sargable range/point estimate may
// report: one key's worth of rows under the observed distinct count.
func rowFloor(cs *catalog.ColStats, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 1 / cs.EffNDistinct()
}

// histBetweenSel estimates "col BETWEEN lo AND hi" from the histogram as the
// bucket-fraction difference LeRows(hi) - LtRows(lo), floored like ranges.
func (o *Optimizer) histBetweenSel(cs *catalog.ColStats, lo, hi value.Value) (float64, bool) {
	h := cs.Hist
	if h == nil || h.NRows <= 0 {
		return 0, false
	}
	total := h.TotalRows()
	rows := h.LeRows(hi) - h.LtRows(lo)
	return math.Max(rows/total, rowFloor(cs, total)), true
}
