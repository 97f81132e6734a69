package sem

import (
	"fmt"
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// newCat builds EMP(NAME,DNO,JOB,SAL,MANAGER,EMPNO), DEPT(DNO,DNAME,LOC),
// JOB(JOB,TITLE) — the paper's schema.
func newCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	mustCreate := func(name string, cols []catalog.Column) {
		if _, err := cat.CreateTable(name, cols, ""); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("EMP", []catalog.Column{
		{Name: "NAME", Type: value.KindString},
		{Name: "DNO", Type: value.KindInt},
		{Name: "JOB", Type: value.KindInt},
		{Name: "SAL", Type: value.KindFloat},
		{Name: "MANAGER", Type: value.KindInt},
		{Name: "EMPNO", Type: value.KindInt},
	})
	mustCreate("DEPT", []catalog.Column{
		{Name: "DNO", Type: value.KindInt},
		{Name: "DNAME", Type: value.KindString},
		{Name: "LOC", Type: value.KindString},
	})
	mustCreate("JOB", []catalog.Column{
		{Name: "JOB", Type: value.KindInt},
		{Name: "TITLE", Type: value.KindString},
	})
	return cat
}

func analyze(t *testing.T, text string) *Block {
	t.Helper()
	blk, err := analyzeErr(t, text)
	if err != nil {
		t.Fatalf("Analyze(%q): %v", text, err)
	}
	return blk
}

func analyzeErr(t *testing.T, text string) (*Block, error) {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return Analyze(st.(*sql.SelectStmt), newCat(t))
}

func wantErr(t *testing.T, text, fragment string) {
	t.Helper()
	_, err := analyzeErr(t, text)
	if err == nil {
		t.Fatalf("Analyze(%q) should fail", text)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("Analyze(%q): error %q lacks %q", text, err, fragment)
	}
}

func TestResolveColumns(t *testing.T) {
	blk := analyze(t, "SELECT E.NAME, SAL, DNAME FROM EMP E, DEPT WHERE E.DNO = DEPT.DNO")
	if len(blk.Rels) != 2 || blk.Rels[0].Name != "E" || blk.Rels[1].Name != "DEPT" {
		t.Fatalf("rels: %+v", blk.Rels)
	}
	if len(blk.Select) != 3 {
		t.Fatal("select arity")
	}
	if c := blk.Select[1].(*Col); c.ID != (ColumnID{Rel: 0, Col: 3}) || c.Typ != value.KindFloat {
		t.Fatalf("unqualified SAL: %+v", c)
	}
	if c := blk.Select[2].(*Col); c.ID != (ColumnID{Rel: 1, Col: 1}) {
		t.Fatalf("DNAME: %+v", c)
	}
}

func TestResolutionErrors(t *testing.T) {
	wantErr(t, "SELECT DNO FROM EMP, DEPT", "ambiguous")
	wantErr(t, "SELECT BOGUS FROM EMP", "cannot be resolved")
	wantErr(t, "SELECT NAME FROM NOPE", "does not exist")
	wantErr(t, "SELECT X.NAME FROM EMP", "cannot be resolved")
	wantErr(t, "SELECT NAME FROM EMP, EMP", "duplicate relation name")
	wantErr(t, "SELECT EMP.NOPE FROM EMP", "does not exist")
}

func TestTypeChecking(t *testing.T) {
	wantErr(t, "SELECT NAME FROM EMP WHERE NAME = 5", "cannot compare")
	wantErr(t, "SELECT NAME FROM EMP WHERE NAME + 1 = 2", "arithmetic on non-numeric")
	wantErr(t, "SELECT NAME FROM EMP WHERE SAL", "not a predicate")
	wantErr(t, "SELECT SUM(NAME) FROM EMP", "requires an arithmetic argument")
	wantErr(t, "SELECT NAME FROM EMP WHERE COUNT(*) = 2", "not allowed here")
	// Numeric cross-type comparison is fine.
	analyze(t, "SELECT NAME FROM EMP WHERE SAL > 100 AND DNO = 2.0")
	// NULL compares with anything (statically).
	analyze(t, "SELECT NAME FROM EMP WHERE NAME = NULL")
}

func TestBooleanFactors(t *testing.T) {
	blk := analyze(t, `SELECT NAME FROM EMP, DEPT
		WHERE EMP.DNO = DEPT.DNO AND SAL > 100 AND (JOB = 1 OR JOB = 2) AND LOC = 'DENVER'`)
	if len(blk.Factors) != 4 {
		t.Fatalf("want 4 boolean factors, got %d", len(blk.Factors))
	}
	join := blk.Factors[0]
	if join.EquiJoin == nil || join.Rels.Count() != 2 {
		t.Fatalf("join factor: %+v", join)
	}
	if sal := onlyTerm(t, blk.Factors[1]); sal.Op != value.OpGt {
		t.Fatalf("SAL > 100 term: %+v", sal)
	}
	or := blk.Factors[2]
	if len(or.SargDNF) != 2 {
		t.Fatalf("OR factor should be a 2-disjunct SARG: %+v", or)
	}
	if loc := onlyTerm(t, blk.Factors[3]); loc.Op != value.OpEq {
		t.Fatalf("LOC eq: %+v", loc)
	}
}

// onlyTerm returns the search-argument term of a factor that is one
// comparison, failing the test for any other shape.
func onlyTerm(t *testing.T, f *BoolFactor) SargTerm {
	t.Helper()
	if len(f.SargDNF) != 1 || len(f.SargDNF[0]) != 1 {
		t.Fatalf("%s: want one search-argument term, got %+v", f, f.SargDNF)
	}
	return f.SargDNF[0][0]
}

func TestNotPushdown(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE NOT (SAL < 10 OR DNO = 3)")
	// NOT(a OR b) → NOT a AND NOT b → two factors with negated operators.
	if len(blk.Factors) != 2 {
		t.Fatalf("want 2 factors after NOT pushdown, got %d: %v", len(blk.Factors), blk.Factors)
	}
	if f0 := onlyTerm(t, blk.Factors[0]); f0.Op != value.OpGe {
		t.Fatalf("NOT(SAL < 10) should become SAL >= 10: %+v", f0)
	}
	if f1 := onlyTerm(t, blk.Factors[1]); f1.Op != value.OpNe {
		t.Fatalf("NOT(DNO = 3) should become DNO <> 3: %+v", f1)
	}
}

func TestBetweenAndInClassification(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL BETWEEN 10 AND 20 AND DNO IN (1, 2, 3)")
	btw := blk.Factors[0].SargDNF
	if len(btw) != 1 || len(btw[0]) != 2 || btw[0][0].Op != value.OpGe || btw[0][1].Op != value.OpLe {
		t.Fatalf("BETWEEN should be one >= and <= conjunct: %+v", btw)
	}
	in := blk.Factors[1]
	if len(in.SargDNF) != 3 {
		t.Fatalf("IN list should be a 3-disjunct SARG: %+v", in.SargDNF)
	}
}

func TestNonSargable(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL + 1 > 10 AND SAL > DNO")
	for i, f := range blk.Factors {
		if f.SargDNF != nil {
			t.Fatalf("factor %d should be residual: %+v", i, f)
		}
	}
}

func TestCorrelationSingleLevel(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)")
	if len(blk.Subqueries) != 1 {
		t.Fatal("one subquery expected")
	}
	sub := blk.Subqueries[0]
	if !sub.Correlated || !sub.Scalar {
		t.Fatalf("subquery flags: %+v", sub)
	}
	child := sub.Block
	if child.NumParams != 1 || len(child.CorrelRefs) != 1 {
		t.Fatalf("child params: %+v", child.CorrelRefs)
	}
	cr := child.CorrelRefs[0]
	if cr.FromParam || cr.FromCol != (ColumnID{Rel: 0, Col: 1}) {
		t.Fatalf("correlation source: %+v", cr)
	}
	// The factor referencing the correlated sub depends on the correlation
	// relation (rel 0 of the outer block).
	if !blk.Factors[0].Rels.Has(0) {
		t.Fatalf("factor rels: %v", blk.Factors[0].Rels)
	}
	// Inside the child, DNO = $param is sargable with a parameter bound.
	if cf := onlyTerm(t, child.Factors[0]); cf.Op != value.OpEq || cf.Val.Kind != BoundParam {
		t.Fatalf("child factor should be param-sargable: %+v", cf)
	}
}

func TestCorrelationPassThrough(t *testing.T) {
	// The paper's level-1/level-3 example: the innermost block references a
	// level-1 value; the intermediate block forwards it as a parameter.
	blk := analyze(t, `SELECT NAME FROM EMP X WHERE SAL >
		(SELECT SAL FROM EMP WHERE EMPNO =
			(SELECT MANAGER FROM EMP WHERE EMPNO = X.MANAGER))`)
	level2 := blk.Subqueries[0].Block
	if len(level2.CorrelRefs) != 1 || level2.CorrelRefs[0].FromParam {
		t.Fatalf("level 2 must correlate on a level-1 column: %+v", level2.CorrelRefs)
	}
	level3 := level2.Subqueries[0].Block
	if len(level3.CorrelRefs) != 1 || !level3.CorrelRefs[0].FromParam {
		t.Fatalf("level 3 must receive the value via a pass-through parameter: %+v", level3.CorrelRefs)
	}
	if level3.CorrelRefs[0].ParentParam != level2.CorrelRefs[0].ParamID {
		t.Fatal("pass-through must reference the intermediate block's parameter")
	}
}

func TestAggregationRules(t *testing.T) {
	blk := analyze(t, "SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO")
	if !blk.HasAgg || len(blk.Aggs) != 2 || len(blk.GroupBy) != 1 {
		t.Fatalf("agg shape: %+v", blk)
	}
	if blk.Aggs[1].Typ != value.KindFloat {
		t.Fatal("AVG type")
	}
	wantErr(t, "SELECT NAME, COUNT(*) FROM EMP GROUP BY DNO", "must appear in GROUP BY")
	wantErr(t, "SELECT NAME, COUNT(*) FROM EMP", "must appear in GROUP BY")
	wantErr(t, "SELECT * FROM EMP GROUP BY DNO", "cannot be combined")
	wantErr(t, "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO ORDER BY SAL", "must appear in GROUP BY")
	wantErr(t, "SELECT MAX(COUNT(*)) FROM EMP", "not allowed here")
	wantErr(t, "SELECT DNO FROM EMP GROUP BY DNO + 1", "only column references")
}

func TestStarExpansion(t *testing.T) {
	blk := analyze(t, "SELECT * FROM EMP, JOB")
	if len(blk.Select) != 8 {
		t.Fatalf("star expansion: %d columns", len(blk.Select))
	}
	blk = analyze(t, "SELECT JOB.*, NAME FROM EMP, JOB")
	if len(blk.Select) != 3 || blk.SelectNames[0] != "JOB" || blk.SelectNames[1] != "TITLE" {
		t.Fatalf("qualified star: %v", blk.SelectNames)
	}
}

func TestSubqueryColumnCount(t *testing.T) {
	wantErr(t, "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO, DNAME FROM DEPT)", "exactly one column")
}

func TestOrderByValidation(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP ORDER BY SAL DESC, DNO")
	if len(blk.OrderBy) != 2 || !blk.OrderBy[0].Desc || blk.OrderBy[1].Desc {
		t.Fatalf("order keys: %+v", blk.OrderBy)
	}
	wantErr(t, "SELECT NAME FROM EMP ORDER BY SAL + 1", "only column references")
}

func TestRelSet(t *testing.T) {
	var s RelSet
	s = s.Set(0).Set(3)
	if !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Fatal("set/has")
	}
	if s.Count() != 2 {
		t.Fatal("count")
	}
	if got := s.Members(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("members: %v", got)
	}
	var one RelSet
	one = one.Set(3)
	if !s.Contains(one) || one.Contains(s) {
		t.Fatal("contains")
	}
	if one.Single() != 3 {
		t.Fatal("single")
	}
	if s.Union(one) != s {
		t.Fatal("union")
	}
}

func TestAnalyzeDeleteUpdate(t *testing.T) {
	cat := newCat(t)
	st, _ := sql.Parse("DELETE FROM EMP E WHERE E.SAL > 100")
	blk, cols, err := AnalyzeLifted(st, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Rels) != 1 || len(blk.Factors) != 1 || blk.Rels[0].Name != "E" {
		t.Fatalf("delete block: %+v", blk)
	}
	if ncols := len(blk.Rels[0].Table.Columns); len(cols) != 0 || len(blk.Select) != ncols {
		t.Fatalf("delete outputs %d values for %d columns, SET columns %v", len(blk.Select), ncols, cols)
	}

	st, _ = sql.Parse("UPDATE EMP SET SAL = SAL * 2 WHERE DNO = 1")
	ublk, cols, err := AnalyzeLifted(st, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ncols := len(ublk.Rels[0].Table.Columns)
	if len(cols) != 1 || cols[0] != 3 || len(ublk.Select) != ncols+1 || ublk.Select[ncols].String() != "(EMP.SAL * 2)" {
		t.Fatalf("update SET columns %v, outputs %v", cols, ublk.Select)
	}
	if len(ublk.Factors) != 1 {
		t.Fatal("update where")
	}
	st, _ = sql.Parse("UPDATE EMP SET NOPE = 1")
	if _, _, err := AnalyzeLifted(st, cat, nil); err == nil {
		t.Fatal("unknown SET column must fail")
	}
}

func TestFactorStringsAndBounds(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL > 10 AND DNO IN (1,2)")
	for _, f := range blk.Factors {
		if f.String() == "" {
			t.Fatal("factor must render")
		}
	}
	b := Bound{Kind: BoundConst, Val: value.NewInt(5)}
	if b.String() != "5" || b.Kind != BoundConst {
		t.Fatal("const bound")
	}
	b = Bound{Kind: BoundParam, Param: 3}
	if b.String() != "$3" || b.Kind != BoundParam {
		t.Fatal("param bound")
	}
}

func TestSargDNFNegatedForms(t *testing.T) {
	// NOT BETWEEN → two disjuncts (< lo OR > hi).
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL NOT BETWEEN 10 AND 20")
	f := blk.Factors[0]
	if len(f.SargDNF) != 2 {
		t.Fatalf("NOT BETWEEN DNF: %+v", f.SargDNF)
	}
	// NOT IN → one conjunct of <> terms.
	blk = analyze(t, "SELECT NAME FROM EMP WHERE DNO NOT IN (1, 2, 3)")
	f = blk.Factors[0]
	if len(f.SargDNF) != 1 || len(f.SargDNF[0]) != 3 {
		t.Fatalf("NOT IN DNF: %+v", f.SargDNF)
	}
	for _, term := range f.SargDNF[0] {
		if term.Op != value.OpNe {
			t.Fatalf("NOT IN terms must be <>: %+v", term)
		}
	}
}

func TestSargDNFSizeLimit(t *testing.T) {
	// An OR tree exceeding maxSargDisjuncts stays residual.
	pred := "DNO = 0"
	for i := 1; i < 40; i++ {
		pred += fmt.Sprintf(" OR DNO = %d", i)
	}
	blk := analyze(t, "SELECT NAME FROM EMP WHERE ("+pred+")")
	if blk.Factors[0].SargDNF != nil {
		t.Fatal("oversized DNF must not be sargable")
	}
}

func TestClassifyInSubqueryFactor(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'X')")
	f := blk.Factors[0]
	if len(f.Subs) != 1 || f.Subs[0].Scalar {
		t.Fatalf("factor subqueries: %+v", f.Subs)
	}
	if f.SargDNF != nil {
		t.Fatal("IN-subquery factor is residual")
	}
	if f.Rels.Count() != 1 || !f.Rels.Has(0) {
		t.Fatalf("factor rels: %v", f.Rels)
	}
}

func TestScalarSubqueryAsBound(t *testing.T) {
	// Non-correlated scalar subquery: usable as an index bound.
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL > (SELECT MAX(SAL) FROM EMP) - 1")
	f := blk.Factors[0]
	// SAL > expr(subquery) — the bound involves arithmetic, so the factor
	// is residual.
	if f.SargDNF != nil {
		t.Fatalf("arithmetic over subquery cannot be a bound: %+v", f.SargDNF)
	}
	blk = analyze(t, "SELECT NAME FROM EMP WHERE SAL > (SELECT MAX(SAL) FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO)")
	if b := onlyTerm(t, blk.Factors[0]); b.Op != value.OpGt || b.Val.Kind != BoundSub {
		t.Fatalf("plain subquery comparison should be a deferred bound: %+v", b)
	}
}

func TestCorrelatedBoundNotPreBindable(t *testing.T) {
	// A subquery correlating on THIS block's relation cannot be a scan-open
	// bound: the factor must be residual and reference both "relations".
	blk := analyze(t, "SELECT E.NAME FROM EMP E, DEPT D WHERE E.SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = D.DNO)")
	f := blk.Factors[0]
	if f.SargDNF != nil {
		t.Fatal("correlated-on-this-block bound must not be sargable")
	}
	if !f.Rels.Has(0) || !f.Rels.Has(1) {
		t.Fatalf("factor must reference E and D: %v", f.Rels)
	}
}

func TestRelsOfExported(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO")
	rels := RelsOf(blk.Factors[0].Expr)
	if rels.Count() != 2 {
		t.Fatalf("RelsOf: %v", rels)
	}
}

func TestHavingAnalysis(t *testing.T) {
	blk := analyze(t, "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO HAVING COUNT(*) > 3 AND DNO < 5")
	if len(blk.Having) != 2 {
		t.Fatalf("having conjuncts: %d", len(blk.Having))
	}
	wantErr(t, "SELECT NAME FROM EMP HAVING COUNT(*) > 1", "HAVING requires")
	wantErr(t, "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO HAVING SAL > 1", "GROUP BY")
	wantErr(t, "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO HAVING DNO + 1", "not a predicate")
}

func TestNegativeBoundFolding(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL > -(5.5)")
	if b := onlyTerm(t, blk.Factors[0]).Val; b.Kind != BoundConst || b.Val.Float != -5.5 {
		t.Fatalf("negated constant bound: %+v", b)
	}
}

// TestHostVariableIsLiftedConst: a '?' analyzes to a lifted Const without a
// compile-time value wherever it appears. It is not an outer-block
// reference, so a subquery that uses one is not correlated, and the
// outermost block counts every '?' of the statement.
func TestHostVariableIsLiftedConst(t *testing.T) {
	blk := analyze(t, "SELECT NAME FROM EMP WHERE SAL > ? AND DNO IN (SELECT DNO FROM DEPT WHERE LOC = ?)")
	if blk.Lifted != 2 || blk.NumParams != 0 {
		t.Fatalf("outer block: Lifted %d, NumParams %d", blk.Lifted, blk.NumParams)
	}
	sub := blk.Subqueries[0]
	if sub.Correlated || len(sub.Block.CorrelRefs) != 0 || sub.Block.NumParams != 0 {
		t.Fatalf("a '?' correlated the subquery: %+v", sub.Block.CorrelRefs)
	}
	for i, f := range []*BoolFactor{blk.Factors[0], sub.Block.Factors[0]} {
		b := onlyTerm(t, f).Val
		if !f.Lifted || b.Kind != BoundConst || b.Lift != i+1 || !b.Val.IsNull() || b.String() != fmt.Sprintf("?%d", i+1) {
			t.Fatalf("%s: bound %+v", f, b)
		}
	}
}
