package systemr_test

import (
	"strings"
	"testing"
)

// TestHostVariables: '?' placeholders bound at Run/Open time — the paper's
// compiled-program model with program-supplied values.
func TestHostVariables(t *testing.T) {
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE DNO = ? AND SAL > ? ORDER BY NAME")
	if err != nil {
		t.Fatal(err)
	}
	// The DNO placeholder becomes a deferred index key.
	if !strings.Contains(stmt.Explain(), "EMP_DNO") {
		t.Fatalf("host-variable equality should probe the index:\n%s", stmt.Explain())
	}
	res, err := stmt.Run(7, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("DNO=7: %d rows", len(res.Rows))
	}
	// Same plan, different binding.
	res, err = stmt.Run(8, 999999.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("impossible salary: %d rows", len(res.Rows))
	}
	// Repeated variable positions are distinct placeholders.
	stmt2, err := db.Prepare("SELECT NAME FROM EMP WHERE SAL BETWEEN ? AND ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err = stmt2.Run(10000.0, 10050.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // SAL = 10000 + 10e for employees e = 0..5
		t.Fatalf("SAL BETWEEN 10000 AND 10050: %d rows, want 6", len(res.Rows))
	}

	// Argument-count mismatch is an error.
	if _, err := stmt.Run(7); err == nil || !strings.Contains(err.Error(), "host variable") {
		t.Fatalf("arity mismatch: %v", err)
	}
	if _, err := stmt.Run(7, 0.0, 3); err == nil {
		t.Fatal("too many args must fail")
	}
	// Unsupported type.
	if _, err := stmt.Run([]byte("x"), 0.0); err == nil {
		t.Fatal("unsupported arg type must fail")
	}
	// Direct Query of a '?' statement fails cleanly (no args channel).
	if _, err := db.Query("SELECT NAME FROM EMP WHERE DNO = ?"); err == nil {
		t.Fatal("unbound host variable must fail")
	}
}

// TestHostVariableInSubquery: a '?' inside a nested block is a literal whose
// value the run supplies, not a reference to an outer query block, so the
// subquery is not correlated: it is planned and evaluated once per run
// (Section 6), and every binding, run or streamed, gets its own rows.
func TestHostVariableInSubquery(t *testing.T) {
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare(
		"SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = ?) AND JOB = ?")
	if err != nil {
		t.Fatal(err)
	}
	if pl := stmt.Explain(); strings.Contains(pl, "correlated") || !strings.Contains(pl, "(c2 = ?1)") {
		t.Fatalf("the subquery should be an uncorrelated block keyed by ?1:\n%s", pl)
	}
	// newEmpDeptJobDB: employee e has job jobs[e%4] and department e%30+1,
	// located at locs[dno%3].
	want := func(loc string, job int) int {
		locs, jobs := []string{"DENVER", "SAN JOSE", "TUCSON"}, []int{5, 6, 9, 12}
		n := 0
		for e := 0; e < 300; e++ {
			if jobs[e%4] == job && locs[(e%30+1)%3] == loc {
				n++
			}
		}
		return n
	}
	// Rebinding reruns the plan without re-optimizing; returning to the
	// first binding returns its rows again.
	for _, b := range []struct {
		loc string
		job int
	}{{"DENVER", 5}, {"TUCSON", 6}, {"SAN JOSE", 9}, {"DENVER", 5}} {
		res, err := stmt.Run(b.loc, b.job)
		if err != nil {
			t.Fatal(err)
		}
		if w := want(b.loc, b.job); len(res.Rows) != w || w == 0 {
			t.Fatalf("%s, %d: got %d rows, want %d", b.loc, b.job, len(res.Rows), w)
		}
		if n := db.LastStats().SubqueryEvals; n != 1 {
			t.Fatalf("%s, %d: subquery evaluated %d times, want once", b.loc, b.job, n)
		}
	}
	// Streaming with args.
	rows, err := stmt.Open("TUCSON", 6)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if w := want("TUCSON", 6); n != w {
		t.Fatalf("cursor streamed %d, want %d", n, w)
	}
	if n := db.LastStats().SubqueryEvals; n != 1 {
		t.Fatalf("cursor evaluated the subquery %d times, want once", n)
	}
	// A wrong argument count fails with one error message, as does a '?'
	// text run without arguments.
	if _, err := stmt.Run("DENVER"); err == nil || err.Error() != "exec: statement has 2 host variable(s), 1 argument(s) supplied" {
		t.Fatalf("arity mismatch: %v", err)
	}
	_, err = db.Query("SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = ?)")
	if err == nil || err.Error() != "exec: statement has 1 host variable(s), 0 argument(s) supplied" {
		t.Fatalf("unbound host variable in a subquery: %v", err)
	}
}

// TestHostVariableSameIndexReused: the same '?' appearing once but referenced
// from multiple spots... each '?' is positional; two '?' are two variables.
func TestHostVariablePositional(t *testing.T) {
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare("SELECT COUNT(*) FROM EMP WHERE DNO = ? OR JOB = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Run(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) == 0 {
		t.Fatal("expected matches")
	}
}
