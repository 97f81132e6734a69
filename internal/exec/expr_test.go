package exec

// Direct expression-evaluator coverage: arithmetic and predicate edge cases
// the differential tests only hit probabilistically.

import (
	"strings"
	"testing"

	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/value"
)

func evalCtx(params ...value.Value) *blockCtx {
	return &blockCtx{
		q:      &plan.Query{Block: &sem.Block{}, NumParams: len(params)},
		params: params,
		subs:   map[*sem.Subquery]*subState{},
	}
}

func c(v int64) sem.Expr    { return &sem.Const{Val: value.NewInt(v)} }
func cf(v float64) sem.Expr { return &sem.Const{Val: value.NewFloat(v)} }
func cs(s string) sem.Expr  { return &sem.Const{Val: value.NewString(s)} }
func cnull() sem.Expr       { return &sem.Const{Val: value.Null()} }

func mustEval(t *testing.T, e sem.Expr) value.Value {
	t.Helper()
	v, err := evalCtx().evalExpr(nil, e)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		e    sem.Expr
		want value.Value
	}{
		{&sem.Bin{Op: sem.OpAdd, L: c(2), R: c(3)}, value.NewInt(5)},
		{&sem.Bin{Op: sem.OpMul, L: c(2), R: cf(1.5)}, value.NewFloat(3)},
		{&sem.Bin{Op: sem.OpDiv, L: c(7), R: c(2)}, value.NewInt(3)},
		{&sem.Bin{Op: sem.OpDiv, L: c(7), R: c(0)}, value.Null()},
		{&sem.Bin{Op: sem.OpSub, L: cnull(), R: c(1)}, value.Null()},
		{&sem.Neg{E: c(5)}, value.NewInt(-5)},
		{&sem.Neg{E: cf(2.5)}, value.NewFloat(-2.5)},
		{&sem.Neg{E: cnull()}, value.Null()},
	}
	for _, tc := range cases {
		got := mustEval(t, tc.e)
		if got.Kind != tc.want.Kind || value.Compare(got, tc.want) != 0 {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
	if _, err := evalCtx().evalExpr(nil, &sem.Neg{E: cs("x")}); err == nil {
		t.Error("negating a string must error")
	}
}

func TestEvalPredicates(t *testing.T) {
	truthyCases := []sem.Expr{
		&sem.Bin{Op: sem.OpLt, L: c(1), R: c(2)},
		&sem.Bin{Op: sem.OpAnd, L: &sem.Bin{Op: sem.OpEq, L: c(1), R: c(1)}, R: &sem.Bin{Op: sem.OpNe, L: c(1), R: c(2)}},
		&sem.Bin{Op: sem.OpOr, L: &sem.Bin{Op: sem.OpEq, L: c(1), R: c(2)}, R: &sem.Bin{Op: sem.OpEq, L: c(3), R: c(3)}},
		&sem.Not{E: &sem.Bin{Op: sem.OpGt, L: c(1), R: c(2)}},
		&sem.Between{E: c(5), Lo: c(1), Hi: c(9)},
		&sem.Between{E: c(0), Lo: c(1), Hi: c(9), Negated: true},
		&sem.InList{E: cs("b"), List: []sem.Expr{cs("a"), cs("b")}},
		&sem.InList{E: c(9), List: []sem.Expr{c(1)}, Negated: true},
	}
	for _, e := range truthyCases {
		if v := mustEval(t, e); !truthy(v) {
			t.Errorf("%s should be true", e)
		}
	}
	falsyCases := []sem.Expr{
		&sem.Bin{Op: sem.OpEq, L: cnull(), R: cnull()}, // NULL = NULL is false
		&sem.Between{E: cnull(), Lo: c(1), Hi: c(2)},
		&sem.Between{E: cnull(), Lo: c(1), Hi: c(2), Negated: true}, // stays false with NULL
		&sem.InList{E: cnull(), List: []sem.Expr{cnull()}},
		&sem.InList{E: cnull(), List: []sem.Expr{c(1)}, Negated: true},
	}
	for _, e := range falsyCases {
		if v := mustEval(t, e); truthy(v) {
			t.Errorf("%s should be false", e)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right side of a short-circuited AND/OR is never evaluated: put an
	// out-of-range parameter there, which would error if touched.
	bad := &sem.Param{ID: 99}
	ctx := evalCtx()
	v, err := ctx.evalExpr(nil, &sem.Bin{Op: sem.OpAnd, L: &sem.Bin{Op: sem.OpEq, L: c(1), R: c(2)}, R: bad})
	if err != nil || truthy(v) {
		t.Fatalf("AND short-circuit: %v %v", v, err)
	}
	v, err = ctx.evalExpr(nil, &sem.Bin{Op: sem.OpOr, L: &sem.Bin{Op: sem.OpEq, L: c(1), R: c(1)}, R: bad})
	if err != nil || !truthy(v) {
		t.Fatalf("OR short-circuit: %v %v", v, err)
	}
	// Touched directly, it errors.
	if _, err := ctx.evalExpr(nil, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad param: %v", err)
	}
}

func TestEvalColumnAndParam(t *testing.T) {
	blk := &sem.Block{}
	ctx := &blockCtx{
		q:      &plan.Query{Block: blk, NumParams: 1},
		params: []value.Value{value.NewInt(42)},
		subs:   map[*sem.Subquery]*subState{},
	}
	comp := comp{value.Row{value.NewString("hello")}}
	v, err := ctx.evalExpr(comp, &sem.Col{ID: sem.ColumnID{Rel: 0, Col: 0}, Typ: value.KindString})
	if err != nil || v.Str != "hello" {
		t.Fatalf("col eval: %v %v", v, err)
	}
	v, err = ctx.evalExpr(comp, &sem.Param{ID: 0})
	if err != nil || v.Int != 42 {
		t.Fatalf("param eval: %v %v", v, err)
	}
	// Column from a missing relation slot errors.
	if _, err := ctx.evalExpr(comp, &sem.Col{ID: sem.ColumnID{Rel: 3, Col: 0}}); err == nil {
		t.Fatal("missing relation slot must error")
	}
	// AggRef outside aggregation errors.
	if _, err := ctx.evalExpr(comp, &sem.AggRef{Idx: 0}); err == nil {
		t.Fatal("AggRef outside aggregation must error")
	}
}

func TestResolveBoundKinds(t *testing.T) {
	ctx := evalCtx(value.NewInt(7))
	v, err := ctx.resolveBound(nil, sem.Bound{Kind: sem.BoundConst, Val: value.NewInt(1)})
	if err != nil || v.Int != 1 {
		t.Fatal("const bound")
	}
	v, err = ctx.resolveBound(nil, sem.Bound{Kind: sem.BoundParam, Param: 0})
	if err != nil || v.Int != 7 {
		t.Fatal("param bound")
	}
	if _, err := ctx.resolveBound(nil, sem.Bound{Kind: sem.BoundParam, Param: 5}); err == nil {
		t.Fatal("out-of-range bound param must error")
	}
}

func TestMergeComp(t *testing.T) {
	a := comp{value.Row{value.NewInt(1)}, nil, nil}
	b := comp{nil, value.Row{value.NewInt(2)}, nil}
	m := make(comp, len(a))
	mergeComp(m, a, b)
	if m[0] == nil || m[1] == nil || m[2] != nil {
		t.Fatalf("merge: %v", m)
	}
	// Inputs unchanged.
	if a[1] != nil || b[0] != nil {
		t.Fatal("mergeComp must not mutate inputs")
	}
}
