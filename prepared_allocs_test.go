//go:build !race

package systemr_test

// The race detector changes allocation counts, so this file runs only
// without it.

import (
	"fmt"
	"testing"
)

// TestPreparedRunAllocs bounds the allocations of a warm Stmt.Run on
// resident data, the statement lifecycle and executor a prepared point
// read pays each time: a unique point select, a 10-row BETWEEN on the
// unique key and a ?-keyed unique-key join. Each bound is the count
// measured when it was set: a change may lower it, never raise it unawares.
func TestPreparedRunAllocs(t *testing.T) {
	db := execBenchDB(t)
	for _, c := range []struct {
		name, text string
		args       []any
		max        float64
	}{
		{"point", "SELECT EMPNO, NAME, SAL FROM EMP WHERE EMPNO = ?", []any{1234}, 49},
		{"range", "SELECT EMPNO, NAME FROM EMP WHERE EMPNO BETWEEN ? AND ?", []any{1000, 1009}, 54},
		{"join", "SELECT EMP.EMPNO, DEPT.DNO, DNAME FROM EMP, DEPT WHERE EMP.EMPNO = ? AND EMP.DNO = DEPT.DNO", []any{1234}, 69},
	} {
		st, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(c.args...); err != nil { // loads the pages
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := st.Run(c.args...); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per run, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestCachedDMLAllocs bounds the allocations of a literal UPDATE whose
// lifted family is cached, on resident data: lifting, the plan-cache
// lookup, the statement lifecycle, locating the target through the unique
// index and writing its new version. The bound is the count measured when
// it was set; a literal UPDATE that compiled anew would pay parse, sem and
// the optimizer on top.
func TestCachedDMLAllocs(t *testing.T) {
	db := execBenchDB(t)
	texts := make([]string, 102)
	for i := range texts {
		texts[i] = fmt.Sprintf("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = %d", 1000+i)
	}
	db.MustExec("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = 999") // compiles the family
	n := 0
	got := testing.AllocsPerRun(100, func() {
		res, err := db.Exec(texts[n])
		if err != nil || res.Affected != 1 {
			t.Fatalf("%s: %v, %v", texts[n], res, err)
		}
		n++
	})
	if max := 87.0; got > max {
		t.Errorf("%.0f allocations per cached UPDATE, want at most %.0f", got, max)
	}
}

// TestResultCellsAllocs bounds a warm Stmt.Run whose result has thousands
// of cells by a constant that does not grow with the rows it returns: a
// 2,000-row range and a 500-row EMP⋈DEPT join (planned as a hash join).
// The result's values share a chunk of numbers and a chunk of strings, and
// the VARCHAR values the scans decode are carved from the block's string
// arena, so the count is paid per batch and per 4 KB of strings. Boxing each cell and copying each
// string alone cost 8,076 and 1,757 allocations. Each bound is the count
// measured when it was set.
func TestResultCellsAllocs(t *testing.T) {
	db := execBenchDB(t)
	for _, c := range []struct {
		name, text string
		args       []any
		rows       int
		max        float64
	}{
		{"range", "SELECT EMPNO, SAL, NAME FROM EMP WHERE EMPNO BETWEEN ? AND ?", []any{1000, 2999}, 2000, 89},
		{"join", "SELECT EMP.EMPNO, DNAME FROM EMP, DEPT WHERE EMP.EMPNO BETWEEN ? AND ? AND EMP.DNO = DEPT.DNO", []any{1000, 1499}, 500, 168},
	} {
		st, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run(c.args...) // loads the pages
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.name, len(res.Rows), c.rows)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := st.Run(c.args...); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per run of %d rows, want at most %.0f", c.name, got, c.rows, c.max)
		}
	}
}
