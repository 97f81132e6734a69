package systemr_test

// Feedback-driven re-optimization: a cached plan whose runtime row count
// misses its compile-time estimate by DefaultRecompileMissRatio (10×) is
// marked; the next execution refreshes statistics on the tables the plan
// reads, which bumps the catalog version and recompiles the statement against
// honest numbers. The loop is advisory — it must never recompile well-behaved
// plans.

import (
	"fmt"
	"strings"
	"testing"

	"systemr"
)

// feedbackDB: T(K, V) with 100 unique K values, indexed and analyzed, so
// "K = 5" compiles with an exact estimate of one row.
func feedbackDB(t *testing.T) *systemr.DB {
	t.Helper()
	db := systemr.Open(systemr.Config{BufferPages: 32})
	db.MustExec("CREATE TABLE T (K INTEGER, V INTEGER)")
	var vals []string
	for i := 0; i < 100; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*10))
	}
	db.MustExec("INSERT INTO T VALUES " + strings.Join(vals, ", "))
	db.MustExec("CREATE INDEX T_K ON T (K)")
	db.MustExec("UPDATE STATISTICS")
	return db
}

// skewT invalidates the statistics without telling the optimizer: it adds
// extra rows with K = 5, so the analyzed one-row estimate is off by
// (extra+1)×.
func skewT(t *testing.T, db *systemr.DB, extra int) {
	t.Helper()
	var vals []string
	for i := 0; i < extra; i++ {
		vals = append(vals, "(5, 0)")
	}
	db.MustExec("INSERT INTO T VALUES " + strings.Join(vals, ", "))
}

func countRows(t *testing.T, db *systemr.DB, q string) int {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestFeedbackRecompilesMissedPlan walks the whole loop: estimate exact →
// data skews under the cached plan → the ≥10× miss marks it → the next
// execution refreshes statistics and recompiles → the recompiled plan is
// served from cache afterwards.
func TestFeedbackRecompilesMissedPlan(t *testing.T) {
	db := feedbackDB(t)
	const q = "SELECT V FROM T WHERE K = 5"

	if got := countRows(t, db, q); got != 1 {
		t.Fatalf("pre-skew rows = %d, want 1", got)
	}
	s1 := db.PlanCacheStats()

	skewT(t, db, 50)

	// Served from cache: the stale plan runs once more, observes 51 actual
	// rows against its 1-row estimate, and is marked for recompilation.
	if got := countRows(t, db, q); got != 51 {
		t.Fatalf("post-skew rows = %d, want 51", got)
	}
	s2 := db.PlanCacheStats()
	if s2.Compilations != s1.Compilations {
		t.Fatalf("the miss-observing execution must still use the cached plan: %d -> %d compilations",
			s1.Compilations, s2.Compilations)
	}

	// The marked plan's next execution refreshes statistics (catalog version
	// bumps) and recompiles exactly once.
	if got := countRows(t, db, q); got != 51 {
		t.Fatalf("recompiled execution rows = %d, want 51", got)
	}
	s3 := db.PlanCacheStats()
	if s3.Compilations != s2.Compilations+1 {
		t.Fatalf("marked plan must recompile exactly once: %d -> %d compilations",
			s2.Compilations, s3.Compilations)
	}
	if s3.CatalogVersion == s2.CatalogVersion {
		t.Fatalf("feedback refresh must bump the catalog version: %d", s3.CatalogVersion)
	}

	// The recompiled plan now estimates the hot key exactly...
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "rows=51.0") {
		t.Fatalf("recompiled plan should estimate the hot key's 51 rows:\n%s", plan)
	}
	// ...so it is served from cache with no further feedback churn.
	if got := countRows(t, db, q); got != 51 {
		t.Fatalf("steady-state rows = %d, want 51", got)
	}
	s4 := db.PlanCacheStats()
	if s4.Compilations != s3.Compilations {
		t.Fatalf("recompiled plan must be served from cache: %d -> %d compilations",
			s3.Compilations, s4.Compilations)
	}
	if s4.Hits <= s2.Hits {
		t.Fatalf("steady state should hit the cache: %+v", s4)
	}
}

// TestFeedbackThreshold: a 5× miss is below DefaultRecompileMissRatio, so
// the plan stays cached.
func TestFeedbackThreshold(t *testing.T) {
	db := feedbackDB(t)
	const q = "SELECT V FROM T WHERE K = 5"
	countRows(t, db, q)
	s1 := db.PlanCacheStats()
	skewT(t, db, 4)
	for i := 0; i < 3; i++ {
		if got := countRows(t, db, q); got != 5 {
			t.Fatalf("rows = %d, want 5", got)
		}
	}
	s2 := db.PlanCacheStats()
	if s2.Compilations != s1.Compilations {
		t.Fatalf("5x miss under the %dx threshold must not recompile: %d -> %d",
			systemr.DefaultRecompileMissRatio, s1.Compilations, s2.Compilations)
	}
}
