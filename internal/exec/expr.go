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

// joiner builds a join's output composites in slots carved from chunks. A
// candidate pair is merged into the current chunk's next free slot and the
// residual is evaluated there; only a kept row advances past the slot, so a
// rejected one leaves it as scratch for the next candidate. An owning
// join's chunk is never written again once its slots are handed out, so
// consumers may retain rows. A lending join (see buildLending) starts its
// chunk over at each batch and marks the batch borrowed.
type joiner struct {
	chunk []value.Row // slots handed out this chunk, with room for more
	kept  int32       // rows kept so far, counted up to the batch target
	lend  bool
}

// reset starts a batch: a lending join's batch is borrowed and reuses its
// chunk from the start.
func (j *joiner) reset(b *Batch) {
	if j.lend {
		j.chunk = j.chunk[:0]
		b.borrowed = true
	}
}

// join merges outer and inner, applies residual, and returns the joined
// composite if it is kept. pending counts the candidates the operator holds
// for now, this one included — what is left of the probe's match list, the
// duplicate group or the inner's batch, plus the outer rows buffered behind
// this one. An owning join sizes a new chunk for the fewest of pending, the
// rows kept so far and the batch target, so a one-row join allocates one
// row's slots and a join that keeps few of many candidates wastes few. A
// lending join's chunk is reused, so it grows, from pending rows and by
// doubling, to hold a batch.
func (j *joiner) join(ctx *blockCtx, outer, inner comp, residual []sem.Expr, pending int) (comp, bool, error) {
	n, at := len(outer), len(j.chunk)
	if cap(j.chunk)-at < n {
		rows := min(max(pending, 1), max(int(j.kept), 1))
		if j.lend {
			rows = max(pending, 2*cap(j.chunk)/n, 1)
		}
		j.chunk = make([]value.Row, 0, min(rows, ctx.batchN())*n)
		at = 0
	}
	c := comp(j.chunk[at : at+n : at+n])
	mergeComp(c, outer, inner)
	keep, err := ctx.applyResidual(c, residual)
	if err != nil || !keep {
		return nil, false, err
	}
	j.chunk = j.chunk[:at+n]
	if int(j.kept) < ctx.batchN() {
		j.kept++
	}
	return c, true, nil
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
		set, err := ctx.subSet(c, x.Sub)
		if err != nil {
			return value.Value{}, err
		}
		var kb [32]byte // the lookup's key converts without allocating
		found := set[string(storage.AppendEncodedRow(kb[:0], value.Row{v}))]
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
