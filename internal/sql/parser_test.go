package sql

import (
	"strings"
	"testing"

	"systemr/internal/value"
)

func mustParse(t *testing.T, text string) Statement {
	t.Helper()
	st, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return st
}

func mustFail(t *testing.T, text, fragment string) {
	t.Helper()
	_, err := Parse(text)
	if err == nil {
		t.Fatalf("Parse(%q) should fail", text)
	}
	if fragment != "" && !strings.Contains(err.Error(), fragment) {
		t.Fatalf("Parse(%q) error %q lacks %q", text, err, fragment)
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE Emp (Name VARCHAR(20), dno INTEGER, sal FLOAT) IN SEGMENT s1;").(*CreateTableStmt)
	if st.Name != "EMP" || st.Segment != "s1" {
		t.Fatalf("%+v", st)
	}
	if len(st.Cols) != 3 || st.Cols[0] != (ColumnDef{Name: "NAME", Type: value.KindString}) ||
		st.Cols[1].Type != value.KindInt || st.Cols[2].Type != value.KindFloat {
		t.Fatalf("cols: %+v", st.Cols)
	}
	mustFail(t, "CREATE TABLE T", "expected (")
	mustFail(t, "CREATE UNIQUE TABLE T (A INT)", "UNIQUE/CLUSTERED")
	mustFail(t, "CREATE TABLE T (A BOGUS)", "type")
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE UNIQUE CLUSTERED INDEX i ON t (a, b)").(*CreateIndexStmt)
	if !st.Unique || !st.Clustered || st.Name != "I" || st.Table != "T" ||
		len(st.Columns) != 2 || st.Columns[1] != "B" {
		t.Fatalf("%+v", st)
	}
	st = mustParse(t, "CREATE INDEX i ON t (a)").(*CreateIndexStmt)
	if st.Unique || st.Clustered {
		t.Fatalf("%+v", st)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (1, 'a', 2.5, NULL), (-3, 'b''c', 1e3, 4), (- 2.5, -(4), 1 + 2, -'x')").(*InsertStmt)
	if st.Table != "T" || len(st.Rows) != 3 || len(st.Rows[0]) != 4 {
		t.Fatalf("%+v", st)
	}
	if !st.Rows[0][3].IsNull() {
		t.Fatal("NULL literal")
	}
	if v := st.Rows[1][0]; v.Int != -3 {
		t.Fatalf("negative literal folded to %v", v)
	}
	if v := st.Rows[1][1]; v.Str != "b'c" {
		t.Fatalf("quote escape: %q", v.Str)
	}
	if v := st.Rows[1][2]; v.Float != 1000 {
		t.Fatalf("scientific literal: %v", v)
	}
	if v := st.Rows[2][0]; v.Kind != value.KindFloat || v.Float != -2.5 {
		t.Fatalf("spaced negative literal folded to %v", v)
	}
	if v := st.Rows[2][1]; v.Kind != value.KindInt || v.Int != -4 {
		t.Fatalf("negated parenthesized literal folded to %v", v)
	}
	// Only the values that are not literals keep an expression, and their
	// slots hold NULL until execution evaluates them.
	if len(st.Exprs) != 2 || st.Exprs[0].Row != 2 || st.Exprs[0].Col != 2 || st.Exprs[1].Col != 3 {
		t.Fatalf("expressions %+v, want rows 2's columns 2 and 3", st.Exprs)
	}
	if _, ok := st.Exprs[0].Expr.(*BinaryExpr); !ok || !st.Rows[2][2].IsNull() {
		t.Fatalf("1 + 2 parsed to %#v in a slot holding %v", st.Exprs[0].Expr, st.Rows[2][2])
	}
	// Rows are carved from one array and cannot grow into one another.
	if cap(st.Rows[0]) != len(st.Rows[0]) {
		t.Fatalf("row 0 has capacity %d for %d values", cap(st.Rows[0]), len(st.Rows[0]))
	}
}

func TestParseSelectShape(t *testing.T) {
	st := mustParse(t, `SELECT DISTINCT e.name, sal + 10 AS bumped, COUNT(*)
		FROM emp e, dept AS d
		WHERE e.dno = d.dno AND sal > 100
		GROUP BY e.name
		ORDER BY e.name DESC, sal`).(*SelectStmt)
	if !st.Distinct || len(st.Items) != 3 || len(st.From) != 2 {
		t.Fatalf("%+v", st)
	}
	if st.From[0].Alias != "E" || st.From[1].Alias != "D" {
		t.Fatalf("aliases: %+v", st.From)
	}
	if st.Items[1].Alias != "BUMPED" {
		t.Fatalf("select alias: %+v", st.Items[1])
	}
	if len(st.GroupBy) != 1 || len(st.OrderBy) != 2 {
		t.Fatalf("clauses: %+v", st)
	}
	if !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Fatal("order directions")
	}
}

func TestParseStars(t *testing.T) {
	st := mustParse(t, "SELECT *, t.* FROM t").(*SelectStmt)
	if !st.Items[0].Star || st.Items[0].Expr != nil {
		t.Fatal("bare star")
	}
	if !st.Items[1].Star || st.Items[1].Expr.(*ColumnRef).Table != "T" {
		t.Fatal("qualified star")
	}
}

func TestParsePrecedence(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := st.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatalf("top must be OR: %v", st.Where)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Fatal("AND binds tighter than OR")
	}
	st = mustParse(t, "SELECT a FROM t WHERE a + 2 * 3 = 7").(*SelectStmt)
	cmp := st.Where.(*BinaryExpr)
	add := cmp.L.(*BinaryExpr)
	if add.Op != OpAdd || add.R.(*BinaryExpr).Op != OpMul {
		t.Fatalf("multiplication binds tighter: %v", st.Where)
	}
	st = mustParse(t, "SELECT a FROM t WHERE NOT a = 1 AND b = 2").(*SelectStmt)
	if st.Where.(*BinaryExpr).Op != OpAnd {
		t.Fatal("NOT binds tighter than AND")
	}
	if _, ok := st.Where.(*BinaryExpr).L.(*NotExpr); !ok {
		t.Fatal("left operand should be NOT")
	}
}

func TestParsePredicates(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3").(*SelectStmt)
	and := st.Where.(*BinaryExpr)
	if !and.R.(*BetweenExpr).Negated || and.L.(*BetweenExpr).Negated {
		t.Fatal("between negation flags")
	}
	st = mustParse(t, "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')").(*SelectStmt)
	and = st.Where.(*BinaryExpr)
	if len(and.L.(*InListExpr).List) != 3 || !and.R.(*InListExpr).Negated {
		t.Fatal("in-list shapes")
	}
	st = mustParse(t, "SELECT a FROM t WHERE a <> 1 AND b != 2").(*SelectStmt)
	and = st.Where.(*BinaryExpr)
	if and.L.(*BinaryExpr).Op != OpNe || and.R.(*BinaryExpr).Op != OpNe {
		t.Fatal("both <> spellings")
	}
}

func TestParseSubqueries(t *testing.T) {
	st := mustParse(t, `SELECT name FROM emp WHERE sal > (SELECT AVG(sal) FROM emp)
		AND dno IN (SELECT dno FROM dept WHERE loc = 'DENVER')`).(*SelectStmt)
	and := st.Where.(*BinaryExpr)
	gt := and.L.(*BinaryExpr)
	if _, ok := gt.R.(*SubqueryExpr); !ok {
		t.Fatalf("scalar subquery: %T", gt.R)
	}
	insub := and.R.(*InSubqueryExpr)
	if insub.Negated || insub.Select.From[0].Table != "DEPT" {
		t.Fatalf("%+v", insub)
	}
	// Three-level nesting (the paper's level-1/2/3 example).
	mustParse(t, `SELECT NAME FROM EMPLOYEE X WHERE SALARY >
		(SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
			(SELECT MANAGER FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER))`)
}

func TestParseAggregates(t *testing.T) {
	st := mustParse(t, "SELECT COUNT(*), SUM(sal), AVG(sal), MIN(sal), MAX(sal+1) FROM emp").(*SelectStmt)
	if len(st.Items) != 5 {
		t.Fatal("five aggregates")
	}
	if !st.Items[0].Expr.(*FuncExpr).Star {
		t.Fatal("COUNT(*)")
	}
	if st.Items[4].Expr.(*FuncExpr).Arg.(*BinaryExpr).Op != OpAdd {
		t.Fatal("aggregate over expression")
	}
}

func TestParseDML(t *testing.T) {
	del := mustParse(t, "DELETE FROM emp e WHERE e.sal < 10").(*DeleteStmt)
	if del.Table != "EMP" || del.Alias != "e" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
	del = mustParse(t, "DELETE FROM emp").(*DeleteStmt)
	if del.Where != nil {
		t.Fatal("where should be nil")
	}
	up := mustParse(t, "UPDATE emp SET sal = sal * 2, dno = 5 WHERE dno = 4").(*UpdateStmt)
	if up.Table != "EMP" || len(up.Sets) != 2 || up.Sets[0].Column != "SAL" {
		t.Fatalf("%+v", up)
	}
	if _, ok := mustParse(t, "UPDATE STATISTICS").(*UpdateStatsStmt); !ok {
		t.Fatal("update statistics")
	}
	if _, ok := mustParse(t, "DROP TABLE t").(*DropTableStmt); !ok {
		t.Fatal("drop table")
	}
	di := mustParse(t, "DROP INDEX emp_dno").(*DropIndexStmt)
	if di.Name != "EMP_DNO" {
		t.Fatalf("%+v", di)
	}
	mustFail(t, "DROP emp", "expected TABLE or INDEX after DROP")
}

func TestParseExplain(t *testing.T) {
	ex := mustParse(t, "EXPLAIN SELECT a FROM t").(*ExplainStmt)
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Fatal("explain wraps select")
	}
	if _, ok := mustParse(t, "EXPLAIN DELETE FROM t WHERE a = 1").(*ExplainStmt); !ok {
		t.Fatal("explain delete")
	}
	mustFail(t, "EXPLAIN DROP TABLE t", "EXPLAIN supports SELECT, DELETE")
}

func TestParseErrors(t *testing.T) {
	mustFail(t, "", "expected a statement")
	mustFail(t, "SELECT", "")
	mustFail(t, "SELECT a FROM", "")
	mustFail(t, "SELECT a FROM t WHERE", "")
	mustFail(t, "SELECT a FROM t GROUP a", "expected BY")
	mustFail(t, "SELECT a FROM t; garbage", "")
	mustFail(t, "SELECT a FROM t WHERE a NOT 5", "")
	mustFail(t, "SELECT a FROM t WHERE 'unterminated", "unterminated string")
	mustFail(t, "SELECT a ! b FROM t", "")
	mustFail(t, "SELECT a FROM t WHERE a = @", "unexpected character")
}

func TestLexComments(t *testing.T) {
	st := mustParse(t, "SELECT a -- trailing comment\nFROM t -- another\n").(*SelectStmt)
	if len(st.Items) != 1 || st.From[0].Table != "T" {
		t.Fatalf("%+v", st)
	}
}

func TestExprStrings(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t WHERE NOT (a+1 = 2 OR b BETWEEN 1 AND 2) AND c IN (1,2)").(*SelectStmt)
	s := st.Where.String()
	for _, frag := range []string{"NOT", "BETWEEN", "IN (1, 2)", "OR", "+"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() %q lacks %q", s, frag)
		}
	}
}

func TestParseTxnControl(t *testing.T) {
	for _, text := range []string{"BEGIN", "begin transaction", "BEGIN WORK;"} {
		if _, ok := mustParse(t, text).(*BeginStmt); !ok {
			t.Fatalf("Parse(%q) is not a BeginStmt", text)
		}
	}
	for _, text := range []string{"COMMIT", "commit work", "COMMIT TRANSACTION;"} {
		if _, ok := mustParse(t, text).(*CommitStmt); !ok {
			t.Fatalf("Parse(%q) is not a CommitStmt", text)
		}
	}
	for _, text := range []string{"ROLLBACK", "rollback transaction", "ROLLBACK WORK;"} {
		if _, ok := mustParse(t, text).(*RollbackStmt); !ok {
			t.Fatalf("Parse(%q) is not a RollbackStmt", text)
		}
	}
	mustFail(t, "BEGIN SELECT", "")
	mustFail(t, "COMMIT garbage extra", "")
	// Txn-control statements reference no tables.
	r, w := TablesReferenced(&BeginStmt{})
	if len(r) != 0 || len(w) != 0 {
		t.Fatalf("BeginStmt references tables: read=%v write=%v", r, w)
	}
}

func TestLeadingKeyword(t *testing.T) {
	cases := map[string]string{
		"BEGIN":                "BEGIN",
		"  begin work":         "BEGIN",
		"commit;":              "COMMIT",
		"ROLLBACK TRANSACTION": "ROLLBACK",
		"SELECT * FROM T":      "SELECT",
		"x":                    "",
		"":                     "",
		"'unterminated":        "",
	}
	for text, want := range cases {
		if got := LeadingKeyword(text); got != want {
			t.Fatalf("LeadingKeyword(%q) = %q, want %q", text, got, want)
		}
	}
}
