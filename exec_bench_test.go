package systemr_test

// Batched execution benchmarks: the per-row operator boundary cost against
// the per-batch boundary (tuple- vs batch-at-a-time scan), and the three
// join methods head to head on a non-sargable equi-join.

import (
	"strings"
	"testing"

	"systemr"
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

func execBenchDB(tb testing.TB, engine systemr.Config) *systemr.DB {
	tb.Helper()
	engine.BufferPages = 4096
	return workload.NewEmpDB(workload.EmpConfig{
		Emps: 4000, Depts: 50, Jobs: 10, Seed: 47, Engine: engine,
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
// operator boundary) against the default 256-row batches.
func BenchmarkExecBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"tuple", 1}, {"batch256", 256}} {
		b.Run(c.name, func(b *testing.B) {
			db := execBenchDB(b, systemr.Config{ExecBatchSize: c.size})
			warmRun(b, db, scanQuery)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(scanQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashJoin runs the non-sargable three-way equi-join under each
// join-method restriction: nested loops only, merge only, and the full
// three-method search (which picks hash here).
func BenchmarkHashJoin(b *testing.B) {
	for _, c := range []struct {
		name   string
		engine systemr.Config
	}{
		{"nestedloops", systemr.Config{NestedLoopsOnly: true}},
		{"merge", systemr.Config{MergeOnly: true}},
		{"hash", systemr.Config{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := execBenchDB(b, c.engine)
			warmRun(b, db, joinQuery)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(joinQuery); err != nil {
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
	db := execBenchDB(t, systemr.Config{})
	pl, err := db.Explain(joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "HASHJOIN") {
		t.Fatalf("full search did not pick hash for the equi-join:\n%s", pl)
	}
}
