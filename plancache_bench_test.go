package systemr_test

// Plan cache benchmarks: the compile-once/execute-many payoff. Two
// statement shapes — a SARGable single-relation SELECT and the EMP/DEPT/JOB
// three-table join — each executed three ways: ad hoc with one literal
// varied per run so every text misses the cache (cold: parse + sem +
// optimize every time), ad hoc through the warm plan cache, and prepared.
// TestPlanCacheHitsCompileOnce checks the cache's half of the bargain
// without a stopwatch.

import (
	"fmt"
	"testing"

	"systemr"
	"systemr/internal/workload"
)

// plancacheQueries gives each shape's text and, for the cold runs, a format
// that replaces the low three digits of its literal with a run counter.
var plancacheQueries = []struct{ name, query, cold string }{
	{"sargable_select", "SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 20000",
		"SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 20%03d"},
	{"join3", "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND E.EMPNO = 1234",
		"SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
			"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND E.EMPNO = 1%03d"},
}

func plancacheDB() *systemr.DB {
	return openEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10, Seed: 43})
}

// coldText is the cold run i's text: 1,000 distinct texts cycle through the
// plan cache, more than it holds, so each is evicted before it recurs.
func coldText(format string, i int) string { return fmt.Sprintf(format, i%1000) }

// assertNoHits fails a cold benchmark whose texts were served from the cache.
func assertNoHits(b *testing.B, db *systemr.DB) {
	b.Helper()
	if s := db.PlanCacheStats(); s.Hits != 0 {
		b.Fatalf("cold loop was served from cache: %+v", s)
	}
}

// BenchmarkPlanCache compares cold compilation against warm cache hits per
// statement shape.
func BenchmarkPlanCache(b *testing.B) {
	for _, q := range plancacheQueries {
		b.Run(q.name+"/cold", func(b *testing.B) {
			db := plancacheDB()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(coldText(q.cold, i)); err != nil {
					b.Fatal(err)
				}
			}
			assertNoHits(b, db)
		})
		b.Run(q.name+"/cached", func(b *testing.B) {
			db := plancacheDB()
			if _, err := db.Query(q.query); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q.query); err != nil {
					b.Fatal(err)
				}
			}
			if s := db.PlanCacheStats(); s.Hits < int64(b.N) {
				b.Fatalf("cached loop was not served from cache: %+v", s)
			}
		})
		b.Run(q.name+"/prepared", func(b *testing.B) {
			db := plancacheDB()
			stmt, err := db.Prepare(q.query)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanCacheHitsCompileOnce runs each statement shape repeatedly ad hoc
// and then prepared through one database: the optimizer runs exactly once,
// every later execution is a cache hit.
func TestPlanCacheHitsCompileOnce(t *testing.T) {
	const runs = 20
	for _, q := range plancacheQueries {
		db := plancacheDB()
		for i := 0; i < runs; i++ {
			if _, err := db.Query(q.query); err != nil {
				t.Fatal(err)
			}
		}
		stmt, err := db.Prepare(q.query)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			if _, err := stmt.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if s := db.PlanCacheStats(); s.Compilations != 1 || s.Hits < runs-1 {
			t.Errorf("%s: %d compilations and %d hits over %d ad hoc runs, want 1 compilation and >= %d hits",
				q.name, s.Compilations, s.Hits, runs, runs-1)
		}
	}

	// A host-variable statement compiles without seeing its bindings, so
	// runs binding an int and a float share the one plan and cache entry.
	db := plancacheDB()
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE SAL > ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []any{20000, 20000.5} {
		if _, err := stmt.Run(arg); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.PlanCacheStats(); s.Compilations != 1 || s.Entries != 1 {
		t.Errorf("host-variable runs: %d compilations and %d entries, want 1 and 1", s.Compilations, s.Entries)
	}
}
