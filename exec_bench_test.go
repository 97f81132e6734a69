package systemr_test

// Batched execution benchmarks: the per-row operator boundary cost against
// the per-batch boundary (tuple- vs batch-at-a-time scan), the three join
// methods head to head on a non-sargable equi-join, and the memory a
// prepared statement that moves a handful of rows costs.

import (
	"strings"
	"testing"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/exec"
	"systemr/internal/workload"
)

const (
	// A plain projection over a multi-page relation: pure per-row boundary
	// overhead, the batched protocol's best case.
	scanQuery = "SELECT SAL FROM EMP"
	// The three-way equi-join with no sargable predicate and no ORDER BY:
	// nothing to prune the scans and no interesting order to ride, so the
	// join method is the whole cost story.
	joinQuery = "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB"
)

func execBenchDB(tb testing.TB) *systemr.DB {
	tb.Helper()
	return openEmpDB(workload.EmpConfig{
		Emps: 4000, Depts: 50, Jobs: 10, Seed: 47, Engine: systemr.Config{BufferPages: 4096},
	})
}

// warmRun executes q once to load pages and the plan cache.
func warmRun(tb testing.TB, db *systemr.DB, q string) {
	tb.Helper()
	if _, err := db.Query(q); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkExecBatch compares tuple-at-a-time execution (batch size 1: every
// row pays a governor tick, a fetch-delta read, and a timestamp pair at every
// operator boundary) against the default 256-row batches, running the planned
// scan directly through the executor.
func BenchmarkExecBatch(b *testing.B) {
	db := execBenchDB(b)
	warmRun(b, db, scanQuery)
	q, err := db.PlanSelect(scanQuery)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		size int
	}{{"tuple", 1}, {"batch256", exec.DefaultBatchSize}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := exec.RunQuery(singleClientRuntime(db, c.size), q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin runs the non-sargable three-way equi-join planned under
// each join-method restriction: nested loops only, merge only, and the full
// three-method search (which picks hash here).
func BenchmarkHashJoin(b *testing.B) {
	db := execBenchDB(b)
	for _, c := range []struct {
		name  string
		joins core.JoinMethod
	}{
		{"nestedloops", core.NestedLoopsOnly},
		{"merge", core.MergeOnly},
		{"hash", core.AllJoins},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := db.OptimizerConfig()
			cfg.Joins = c.joins
			q, _ := planQuery(b, db, joinQuery, cfg)
			if _, _, err := db.RunPlanned(q); err != nil { // loads the pages
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RunPlanned(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedLookup runs the four prepared statement shapes of the
// bench's point_lookup workload through Stmt.Run on resident data: a unique
// point select, a non-unique equality with a residual, a 10-row BETWEEN on
// the unique key, and a unique-key join. Its B/op and allocs/op are the
// per-shape memory of the statement lifecycle and executor, which should
// follow the rows each statement returns, not the batch target.
func BenchmarkPreparedLookup(b *testing.B) {
	db := execBenchDB(b)
	for _, c := range []struct {
		name, text string
		args       []any
		rows       int // expected result rows; -1 when the data decides
	}{
		{"point", "SELECT EMPNO, NAME, SAL FROM EMP WHERE EMPNO = ?", []any{1234}, 1},
		{"dept", "SELECT EMPNO, SAL FROM EMP WHERE DNO = ? AND SAL > ?", []any{7, 40000.5}, -1},
		{"range", "SELECT EMPNO, NAME FROM EMP WHERE EMPNO BETWEEN ? AND ?", []any{1000, 1009}, 10},
		{"join", "SELECT EMP.EMPNO, DEPT.DNO, DNAME FROM EMP, DEPT WHERE EMP.EMPNO = ? AND EMP.DNO = DEPT.DNO", []any{1234}, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			st, err := db.Prepare(c.text)
			if err != nil {
				b.Fatal(err)
			}
			res, err := st.Run(c.args...)
			if err != nil {
				b.Fatal(err)
			}
			if c.rows >= 0 && len(res.Rows) != c.rows {
				b.Fatalf("%s: %d rows, want %d", c.text, len(res.Rows), c.rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Run(c.args...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHashJoinChosenForEquiJoin checks that the full three-method search
// picks the hash join for BenchmarkHashJoin's equi-join, so the benchmark's
// "hash" case measures what its name says.
func TestHashJoinChosenForEquiJoin(t *testing.T) {
	db := execBenchDB(t)
	pl, err := db.Explain(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "HASHJOIN") {
		t.Fatalf("full search did not pick hash for the equi-join:\n%s", pl)
	}
}
