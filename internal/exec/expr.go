// Package exec interprets the physical plans the optimizer emits — the
// analog of the code the paper's CODE GENERATOR produces from ASL trees. It
// drives RSS scans along the chosen access paths, re-opens nested-loop
// inners with join values bound into runtime parameters, merges ordered
// scans with inner-group buffering, sorts through temporary lists, and
// evaluates nested query blocks ("subroutines which return values to the
// predicates in which they occur", Section 2) with the Section 6
// re-evaluation cache for correlated subqueries.
package exec

import (
	"fmt"

	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// comp is a composite runtime row: one slot per FROM-list relation of the
// block, nil for relations not yet joined in.
type comp []value.Row

// mergeComp writes the combination of two composites with disjoint filled
// slots into dst (len(a)).
func mergeComp(dst, a, b comp) {
	copy(dst, a)
	for i, r := range b {
		if r != nil {
			dst[i] = r
		}
	}
}

// copyComp points dst's slots at copies of src's filled slots, appended to
// *vals. Appending never moves a value already copied: when *vals runs out
// of room it moves to a new array, and the rows copied before keep the old
// one, which no one writes again.
func copyComp(vals *value.Row, dst, src comp) {
	for i, r := range src {
		if r != nil {
			at := len(*vals)
			*vals = append(*vals, r...)
			dst[i] = (*vals)[at:len(*vals):len(*vals)]
		}
	}
}

// compWidth returns the number of values in c's filled slots.
func compWidth(c comp) int {
	w := 0
	for _, r := range c {
		w += len(r)
	}
	return w
}

// evalExpr evaluates a resolved expression against the current composite
// row.
func (ctx *blockCtx) evalExpr(c comp, e sem.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *sem.Col:
		if x.ID.Rel < 0 || x.ID.Rel >= len(c) || c[x.ID.Rel] == nil {
			return value.Value{}, fmt.Errorf("exec: column %s referenced before its relation is joined", x.Name)
		}
		row := c[x.ID.Rel]
		if x.ID.Col < 0 || x.ID.Col >= len(row) {
			return value.Value{}, fmt.Errorf("exec: column ordinal %d out of range for %s", x.ID.Col, x.Name)
		}
		return row[x.ID.Col], nil
	case *sem.Const:
		return x.Value(ctx.lits), nil
	case *sem.Param:
		if x.ID >= len(ctx.params) {
			return value.Value{}, fmt.Errorf("exec: parameter $%d out of range", x.ID)
		}
		return ctx.params[x.ID], nil
	case *sem.AggRef:
		if ctx.aggVals == nil || x.Idx >= len(ctx.aggVals) {
			return value.Value{}, fmt.Errorf("exec: aggregate %s referenced outside aggregation", x.Name)
		}
		return ctx.aggVals[x.Idx], nil
	case *sem.Bin:
		return ctx.evalBin(c, x)
	case *sem.Not:
		v, err := ctx.evalBool(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(!v), nil
	case *sem.Neg:
		v, err := ctx.evalExpr(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		switch v.Kind {
		case value.KindNull:
			return value.Null(), nil
		case value.KindInt:
			return value.NewInt(-v.Int), nil
		case value.KindFloat:
			return value.NewFloat(-v.Float), nil
		default:
			return value.Value{}, fmt.Errorf("exec: cannot negate %s", v.Kind)
		}
	case *sem.Between:
		v, err := ctx.evalExpr(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := ctx.evalExpr(c, x.Lo)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := ctx.evalExpr(c, x.Hi)
		if err != nil {
			return value.Value{}, err
		}
		in := value.OpGe.Apply(v, lo) && value.OpLe.Apply(v, hi)
		if x.Negated {
			// NOT BETWEEN with NULL operands stays false, matching the
			// simplified NULL rule (any comparison with NULL is false).
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return boolVal(false), nil
			}
			return boolVal(!in), nil
		}
		return boolVal(in), nil
	case *sem.InList:
		v, err := ctx.evalExpr(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return boolVal(false), nil
		}
		found := false
		for _, le := range x.List {
			lv, err := ctx.evalExpr(c, le)
			if err != nil {
				return value.Value{}, err
			}
			if value.OpEq.Apply(v, lv) {
				found = true
				break
			}
		}
		if x.Negated {
			return boolVal(!found), nil
		}
		return boolVal(found), nil
	case *sem.InSub:
		v, err := ctx.evalExpr(c, x.E)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return boolVal(false), nil
		}
		st, err := ctx.evaluate(c, x.Sub)
		if err != nil {
			return value.Value{}, err
		}
		var kb [32]byte // the lookup's key converts without allocating
		found := st.set[string(storage.AppendEncodedRow(kb[:0], value.Row{v}))]
		if x.Negated {
			return boolVal(!found), nil
		}
		return boolVal(found), nil
	case *sem.ScalarSub:
		return ctx.subScalar(c, x.Sub)
	default:
		return value.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (ctx *blockCtx) evalBin(c comp, x *sem.Bin) (value.Value, error) {
	switch x.Op {
	case sem.OpAnd:
		l, err := ctx.evalBool(c, x.L)
		if err != nil {
			return value.Value{}, err
		}
		if !l {
			return boolVal(false), nil
		}
		r, err := ctx.evalBool(c, x.R)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(r), nil
	case sem.OpOr:
		l, err := ctx.evalBool(c, x.L)
		if err != nil {
			return value.Value{}, err
		}
		if l {
			return boolVal(true), nil
		}
		r, err := ctx.evalBool(c, x.R)
		if err != nil {
			return value.Value{}, err
		}
		return boolVal(r), nil
	}
	l, err := ctx.evalExpr(c, x.L)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ctx.evalExpr(c, x.R)
	if err != nil {
		return value.Value{}, err
	}
	if x.Op.IsComparison() {
		return boolVal(x.Op.CmpOp().Apply(l, r)), nil
	}
	var opByte byte
	switch x.Op {
	case sem.OpAdd:
		opByte = '+'
	case sem.OpSub:
		opByte = '-'
	case sem.OpMul:
		opByte = '*'
	case sem.OpDiv:
		opByte = '/'
	default:
		return value.Value{}, fmt.Errorf("exec: unsupported operator %s", x.Op)
	}
	return value.Arith(opByte, l, r), nil
}

// evalBool evaluates a predicate with NULL treated as false.
func (ctx *blockCtx) evalBool(c comp, e sem.Expr) (bool, error) {
	v, err := ctx.evalExpr(c, e)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func truthy(v value.Value) bool {
	switch v.Kind {
	case value.KindInt:
		return v.Int != 0
	case value.KindFloat:
		return v.Float != 0
	default:
		return false
	}
}

func boolVal(b bool) value.Value {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}

// resolveBound turns an optimizer Bound into a concrete runtime value: a
// constant, a parameter already bound by the enclosing join or block, or a
// scalar subquery evaluated before the scan opens.
func (ctx *blockCtx) resolveBound(c comp, b sem.Bound) (value.Value, error) {
	switch b.Kind {
	case sem.BoundConst:
		return b.Value(ctx.lits), nil
	case sem.BoundParam:
		if b.Param >= len(ctx.params) {
			return value.Value{}, fmt.Errorf("exec: bound parameter $%d out of range", b.Param)
		}
		return ctx.params[b.Param], nil
	case sem.BoundSub:
		return ctx.subScalar(c, b.Sub)
	default:
		return value.Value{}, fmt.Errorf("exec: unknown bound kind %d", b.Kind)
	}
}
