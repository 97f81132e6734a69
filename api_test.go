package systemr_test

import (
	"strings"
	"testing"

	"systemr"
	"systemr/internal/testutil"
	"systemr/internal/value"
	"systemr/internal/workload"
)

func TestPublicAPIErrors(t *testing.T) {
	db := openDB(systemr.Config{})
	cases := []struct{ stmt, frag string }{
		{"SELECT x FROM nope", "does not exist"},
		{"FROB TABLE x", "expected a statement"},
		{"INSERT INTO nope VALUES (1)", "does not exist"},
		{"CREATE TABLE t (a INTEGER); CREATE TABLE u (a INTEGER)", "unexpected"},
		{"INSERT INTO t VALUES (a)", ""}, // t doesn't exist yet either way
	}
	for _, c := range cases {
		_, err := db.Exec(c.stmt)
		if err == nil {
			t.Fatalf("%q should fail", c.stmt)
		}
		if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%q: error %q lacks %q", c.stmt, err, c.frag)
		}
	}
	db.MustExec("CREATE TABLE t (a INTEGER)")
	if _, err := db.Exec("INSERT INTO t VALUES (a)"); err == nil ||
		!strings.Contains(err.Error(), "constant expressions") {
		t.Fatalf("non-constant VALUES: %v", err)
	}
	if _, err := db.Query("INSERT INTO t VALUES (1)"); err == nil ||
		!strings.Contains(err.Error(), "not a query") {
		t.Fatalf("Query on DML: %v", err)
	}
	// EXPLAIN now covers DML; DDL remains unsupported.
	if _, err := db.Exec("EXPLAIN CREATE TABLE z (a INTEGER)"); err == nil {
		t.Fatal("EXPLAIN DDL must fail")
	}
}

func TestInsertConstantArithmetic(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE t (a INTEGER, b FLOAT)")
	db.MustExec("INSERT INTO t VALUES (2 * 3 + 1, -(1.5 + 1))")
	res, err := db.Query("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 7 || res.Rows[0][1].(float64) != -2.5 {
		t.Fatalf("constant folding: %v", res.Rows[0])
	}
}

func TestFormatResult(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE t (name VARCHAR, n INTEGER)")
	db.MustExec("INSERT INTO t VALUES ('long-name-here', 1), ('x', NULL)")
	res, _ := db.Query("SELECT NAME, N FROM t")
	out := systemr.FormatResult(res)
	for _, frag := range []string{"NAME", "long-name-here", "NULL", "(2 rows)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("formatted output lacks %q:\n%s", frag, out)
		}
	}
	ddl := db.MustExec("CREATE TABLE u (a INTEGER)")
	if !strings.Contains(systemr.FormatResult(ddl), "OK") {
		t.Fatal("DDL result format")
	}
}

func TestTablesListing(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE z (a INTEGER)")
	db.MustExec("CREATE TABLE a (x VARCHAR)")
	db.MustExec("CREATE UNIQUE CLUSTERED INDEX a_x ON a (x)")
	db.MustExec("UPDATE STATISTICS")
	out := db.Tables()
	if !strings.Contains(out, "A (X VARCHAR)") || !strings.Contains(out, "Z (A INTEGER)") {
		t.Fatalf("listing:\n%s", out)
	}
	if strings.Index(out, "A (") > strings.Index(out, "Z (") {
		t.Fatal("tables must list sorted")
	}
	if !strings.Contains(out, "UNIQUE CLUSTERED") {
		t.Fatalf("index flags missing:\n%s", out)
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec must panic on error")
		}
	}()
	openDB(systemr.Config{}).MustExec("SELECT broken")
}

func TestExecStatsCost(t *testing.T) {
	s := systemr.ExecStats{PageFetches: 10, PagesWritten: 5, RSICalls: 300}
	if got := s.Cost(0.1); got != 45 {
		t.Fatalf("cost = %v", got)
	}
}

// TestWeightingFactorChangesChoice reruns E16's flip: ORDER BY on a
// non-clustered index column pits a page-light segment scan plus sort
// against an ordered index scan that fetches a page per tuple but sorts
// nothing. At W = 0.01 (I/O dominant) the sort wins; at W = 2 (CPU
// dominant) the index scan does. Both plans must return the same rows.
func TestWeightingFactorChangesChoice(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 8000, Depts: 100, Jobs: 4, Seed: 59})
	const query = "SELECT NAME FROM EMP ORDER BY JOB"
	var results [][]value.Row
	for _, tc := range []struct {
		w          float64
		has, lacks string
	}{
		{0.01, "SEGSCAN EMP", "INDEXSCAN"},
		{2, "INDEXSCAN EMP via EMP_JOB(JOB)", "SORT"},
	} {
		cfg := db.OptimizerConfig()
		cfg.W = tc.w
		q, _ := planQuery(t, db, query, cfg)
		if pl := q.Explain(); !strings.Contains(pl, tc.has) || strings.Contains(pl, tc.lacks) {
			t.Fatalf("W=%v: want a plan with %s and no %s:\n%s", tc.w, tc.has, tc.lacks, pl)
		}
		rows, _, err := db.RunPlanned(q)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rows)
	}
	if len(results[0]) != 8000 || !testutil.SameMultiset(results[0], results[1]) {
		t.Fatalf("the W=0.01 and W=2 plans return different rows (%d vs %d)", len(results[0]), len(results[1]))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
