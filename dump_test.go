package systemr_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"systemr"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// TestDumpAndRestore: a dumped script rebuilds an equivalent database.
func TestDumpAndRestore(t *testing.T) {
	src := newEmpDeptJobDB(t)
	src.MustExec("DELETE FROM EMP WHERE DNO = 5") // some churn before dumping
	var script strings.Builder
	if err := src.DumpSQL(&script); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"CREATE TABLE EMP", "CREATE UNIQUE INDEX DEPT_DNO", "UPDATE STATISTICS;"} {
		if !strings.Contains(script.String(), frag) {
			t.Fatalf("script lacks %q", frag)
		}
	}
	if strings.Contains(script.String(), "SYSTABLES (") {
		t.Fatal("system catalogs must not be dumped as CREATE TABLE")
	}

	dst := openDB(systemr.Config{})
	n, err := dst.RunScript(strings.NewReader(script.String()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n < 300 {
		t.Fatalf("only %d statements restored", n)
	}

	// Equivalence over a query battery.
	for _, q := range []string{
		"SELECT COUNT(*) FROM EMP",
		"SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO ORDER BY DNO",
		"SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER'",
	} {
		a := mustRows(t, src, q)
		b := mustRows(t, dst, q)
		if !testutil.SameMultiset(a, b) {
			t.Fatalf("restored database differs for %q", q)
		}
	}
	// Statistics were refreshed by the trailing UPDATE STATISTICS.
	emp, _ := dst.Catalog().Table("EMP")
	if !emp.Stats.HasStats || emp.Stats.NCard != 290 {
		t.Fatalf("restored stats: %+v", emp.Stats)
	}
}

// TestDumpSQLUnderWriter: a dump beside an open writing transaction neither
// waits for the writer's table lock nor sees its uncommitted rows: it writes
// the committed state, byte for byte the dump taken before the write.
func TestDumpSQLUnderWriter(t *testing.T) {
	db := openDB(systemr.Config{LockTimeout: 50 * time.Millisecond})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1)")
	db.MustExec("INSERT INTO T VALUES (2)")
	var before strings.Builder
	if err := db.DumpSQL(&before); err != nil {
		t.Fatal(err)
	}
	w := db.Begin()
	if _, err := w.Exec("UPDATE T SET A = 999"); err != nil {
		t.Fatal(err)
	}
	var during strings.Builder
	if err := db.DumpSQL(&during); err != nil {
		t.Fatalf("dump beside an open writer: %v", err)
	}
	if during.String() != before.String() {
		t.Fatalf("dump beside an open writer is not the committed state:\n%s", during.String())
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
}

func mustRows(t *testing.T, db *systemr.DB, q string) []value.Row {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]value.Row, len(res.Rows))
	for i, r := range res.Rows {
		row := make(value.Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case int64:
				row[j] = value.NewInt(x)
			case float64:
				row[j] = value.NewFloat(x)
			case string:
				row[j] = value.NewString(x)
			default:
				row[j] = value.Null()
			}
		}
		out[i] = row
	}
	return out
}

// TestDumpRoundTripsFloats: every FLOAT a table can hold reloads from its
// dump as the same value, bit for bit — NaN (by math.IsNaN, as no literal
// fixes its bits), both infinities and both zeros included.
func TestDumpRoundTripsFloats(t *testing.T) {
	src := openDB(systemr.Config{})
	src.MustExec("CREATE TABLE Z (N INTEGER, F FLOAT)")
	for i, e := range []string{"1e308 * 10 - 1e308 * 10", "1e308 * 10", "-1e308 * 10",
		"-0.0", "0.0", "1.5", "-2.25e-300", "5e-324", "1.7976931348623157e308", "0.1", "3"} {
		src.MustExec(fmt.Sprintf("INSERT INTO Z VALUES (%d, %s)", i, e))
	}
	var script strings.Builder
	if err := src.DumpSQL(&script); err != nil {
		t.Fatal(err)
	}
	dst := openDB(systemr.Config{})
	if _, err := dst.RunScript(strings.NewReader(script.String())); err != nil {
		t.Fatalf("restore: %v\n%s", err, script.String())
	}
	const q = "SELECT N, F FROM Z ORDER BY N"
	want, got := src.MustExec(q).Rows, dst.MustExec(q).Rows
	if len(got) != len(want) {
		t.Fatalf("restored %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i][1].(float64), got[i][1].(float64)
		if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("row %d: dumped %v (bits %#x), reloaded %v (bits %#x)", i, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
	if !math.IsNaN(want[0][1].(float64)) || !math.IsInf(want[1][1].(float64), 1) || !math.Signbit(want[3][1].(float64)) {
		t.Fatalf("source rows lack NaN, +Inf or -0.0: %v", want)
	}
}

func TestRunScriptErrorPosition(t *testing.T) {
	db := openDB(systemr.Config{})
	script := "CREATE TABLE T (A INTEGER); INSERT INTO T VALUES (1); BROKEN; INSERT INTO T VALUES (2)"
	n, err := db.RunScript(strings.NewReader(script))
	if err == nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !strings.Contains(err.Error(), "statement 3") {
		t.Fatalf("error lacks position: %v", err)
	}
	// Semicolons inside strings don't split.
	db2 := openDB(systemr.Config{})
	script = "CREATE TABLE S (A VARCHAR); INSERT INTO S VALUES ('a;b')"
	if _, err := db2.RunScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	res, _ := db2.Query("SELECT A FROM S")
	if res.Rows[0][0].(string) != "a;b" {
		t.Fatalf("string with semicolon: %v", res.Rows)
	}
}

// TestRunScriptLineComments: an apostrophe or a semicolon inside a "--"
// comment neither opens a string nor splits a statement, and "--" inside a
// string literal is data, not a comment.
func TestRunScriptLineComments(t *testing.T) {
	db := openDB(systemr.Config{})
	script := "-- don't split here\n" +
		"CREATE TABLE S (A VARCHAR); -- it's one statement; not two\n" +
		"INSERT INTO S VALUES ('a--b');\n" +
		"INSERT INTO S VALUES ('c') -- no newline after this comment"
	n, err := db.RunScript(strings.NewReader(script))
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v, want 3 statements", n, err)
	}
	res, err := db.Query("SELECT A FROM S ORDER BY A")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "a--b" || res.Rows[1][0] != "c" {
		t.Fatalf("rows = %v, want [a--b] [c]", res.Rows)
	}
}
