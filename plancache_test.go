package systemr_test

// Plan cache regression tests: the compile-once/execute-many contract. A
// repeated statement must skip parse/sem/optimize entirely (asserted through
// the pipeline's compilation counter), and no statement — ad hoc or prepared
// — may ever execute a plan compiled before a DDL statement or statistics
// refresh (asserted through EXPLAIN plan flips and the invalidation counter).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"systemr"
	"systemr/internal/workload"
)

func empDB(t testing.TB) *systemr.DB {
	t.Helper()
	return openEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10, Seed: 11})
}

// TestPlanCacheHitSkipsCompilation: the second execution of an identical
// statement is served from the cache — the optimizer does not run again —
// and text differences that normalize away (case, whitespace, comments,
// trailing semicolon) still hit.
func TestPlanCacheHitSkipsCompilation(t *testing.T) {
	db := empDB(t)
	const q = "SELECT NAME FROM EMP WHERE EMPNO = 100"
	res1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after1 := db.PlanCacheStats()
	if after1.Misses < 1 {
		t.Fatalf("first execution should miss: %+v", after1)
	}
	// Keyword case, whitespace, comments, and trailing semicolons normalize
	// away; identifier spelling is part of the key (it names output columns).
	for _, variant := range []string{
		q,
		"select NAME from EMP where EMPNO = 100;",
		"  SELECT NAME\n FROM EMP -- comment\n WHERE EMPNO = 100",
	} {
		res2, err := db.Query(variant)
		if err != nil {
			t.Fatalf("%q: %v", variant, err)
		}
		if fmt.Sprint(res2.Rows) != fmt.Sprint(res1.Rows) ||
			fmt.Sprint(res2.Columns) != fmt.Sprint(res1.Columns) {
			t.Fatalf("%q: cached result differs: %v vs %v", variant, res2, res1)
		}
	}
	after := db.PlanCacheStats()
	if got := after.Hits - after1.Hits; got != 3 {
		t.Fatalf("hits = %d, want 3: %+v", got, after)
	}
	if after.Compilations != after1.Compilations {
		t.Fatalf("cache hits recompiled: %d -> %d optimizer runs",
			after1.Compilations, after.Compilations)
	}
}

// TestPlanCacheDropIndexInvalidation is the stale-plan regression test: a
// cached plan probing an index must flip to a segment scan after DROP INDEX,
// and back through an index scan after the index is recreated.
func TestPlanCacheDropIndexInvalidation(t *testing.T) {
	db := empDB(t)
	const q = "SELECT NAME FROM EMP WHERE EMPNO = 100"
	p1, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p1, "INDEXSCAN EMP via EMP_EMPNO") {
		t.Fatalf("expected unique-index probe before drop:\n%s", p1)
	}
	if _, err := db.Query(q); err != nil { // warm the cache with an execution
		t.Fatal(err)
	}
	db.MustExec("DROP INDEX EMP_EMPNO")
	p2, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p2, "EMP_EMPNO") || !strings.Contains(p2, "SEGSCAN EMP") {
		t.Fatalf("stale index-scan plan survived DROP INDEX:\n%s", p2)
	}
	res, err := db.Query(q) // executing the dropped-index plan would be unsound
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after drop = %d, want 1", len(res.Rows))
	}
	if s := db.PlanCacheStats(); s.Invalidations < 1 {
		t.Fatalf("no invalidation recorded: %+v", s)
	}
	db.MustExec("CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)")
	db.MustExec("UPDATE STATISTICS EMP")
	p3, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p3, "INDEXSCAN EMP via EMP_EMPNO") {
		t.Fatalf("plan did not flip back after index recreation:\n%s", p3)
	}
}

// TestPlanCacheUpdateStatisticsInvalidation: a statistics refresh is a
// dependency change — cached plans recompile against the new statistics —
// and only the refresh is: data that drifts under a cached plan, however far
// from its estimate, leaves the plan serving until UPDATE STATISTICS runs.
func TestPlanCacheUpdateStatisticsInvalidation(t *testing.T) {
	db := empDB(t)
	const q = "SELECT COUNT(*) FROM EMP WHERE DNO = 7"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	db.MustExec("UPDATE STATISTICS EMP")
	after := db.PlanCacheStats()
	if after.CatalogVersion != before.CatalogVersion+1 {
		t.Fatalf("UPDATE STATISTICS did not bump the version: %+v -> %+v", before, after)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	final := db.PlanCacheStats()
	if final.Invalidations != before.Invalidations+1 {
		t.Fatalf("stale plan not invalidated after stats refresh: %+v", final)
	}
	if final.Compilations == before.Compilations {
		t.Fatal("stale plan was served without recompilation")
	}

	// T(K, V) with 100 unique keys, indexed and analyzed: "K = 5" compiles
	// with an exact one-row estimate.
	db = openDB(systemr.Config{BufferPages: 32})
	db.MustExec("CREATE TABLE T (K INTEGER, V INTEGER)")
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d)", i, i*10)
	}
	db.MustExec("INSERT INTO T VALUES " + strings.Join(vals, ", "))
	db.MustExec("CREATE INDEX T_K ON T (K)")
	db.MustExec("UPDATE STATISTICS")
	const skewQ = "SELECT V FROM T WHERE K = 5"
	run := func(want int) {
		t.Helper()
		res, err := db.Query(skewQ)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("%s: %d rows, want %d", skewQ, len(res.Rows), want)
		}
	}
	run(1)
	s1 := db.PlanCacheStats()

	// Fifty more K = 5 rows put the cached plan's estimate 51× off. It keeps
	// serving: no recompilation, no statistics refresh.
	db.MustExec("INSERT INTO T VALUES " + strings.Repeat("(5, 0), ", 49) + "(5, 0)")
	for i := 0; i < 3; i++ {
		run(51)
	}
	s2 := db.PlanCacheStats()
	if s2.Compilations != s1.Compilations || s2.CatalogVersion != s1.CatalogVersion {
		t.Fatalf("a misestimating plan must keep serving until UPDATE STATISTICS: %+v -> %+v", s1, s2)
	}

	// An explicit refresh recompiles it against the skewed key's 51 rows.
	db.MustExec("UPDATE STATISTICS")
	run(51)
	if s3 := db.PlanCacheStats(); s3.Compilations != s2.Compilations+1 {
		t.Fatalf("UPDATE STATISTICS must recompile the plan once: %+v -> %+v", s2, s3)
	}
	plan, err := db.Explain(skewQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "rows=51.0") {
		t.Fatalf("the recompiled plan should estimate the skewed key's 51 rows:\n%s", plan)
	}
}

// TestExplainCacheNote: EXPLAIN reports when the plan came from the cache,
// and shares the plain SELECT's cache slot.
func TestExplainCacheNote(t *testing.T) {
	db := empDB(t)
	const q = "SELECT NAME FROM EMP WHERE EMPNO = 3"
	cold, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold, "plan cache: hit") {
		t.Fatalf("cold EXPLAIN claims a cache hit:\n%s", cold)
	}
	warm, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("plan cache: hit (compiled at catalog version %d)",
		db.PlanCacheStats().CatalogVersion)
	if !strings.Contains(warm, want) {
		t.Fatalf("warm EXPLAIN lacks %q:\n%s", want, warm)
	}
	// The EXPLAIN populated the SELECT's slot: executing the SELECT now hits.
	before := db.PlanCacheStats()
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if after := db.PlanCacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("SELECT did not share EXPLAIN's cache slot: %+v -> %+v", before, after)
	}
}

// TestPreparedStmtRevalidation: a prepared statement must not execute a plan
// compiled before a DDL change — each Run revalidates the catalog version and
// transparently recompiles.
func TestPreparedStmtRevalidation(t *testing.T) {
	db := empDB(t)
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE EMPNO = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.Explain(), "INDEXSCAN EMP via EMP_EMPNO") {
		t.Fatalf("prepared plan should probe the unique index:\n%s", stmt.Explain())
	}
	v1 := stmt.Version()
	res, err := stmt.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	db.MustExec("DROP INDEX EMP_EMPNO")
	res, err = stmt.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after DROP INDEX = %d, want 1", len(res.Rows))
	}
	if stmt.Version() <= v1 {
		t.Fatalf("prepared statement still holds the pre-DDL plan (version %d)", stmt.Version())
	}
	if strings.Contains(stmt.Explain(), "EMP_EMPNO") {
		t.Fatalf("recompiled prepared plan still references the dropped index:\n%s", stmt.Explain())
	}
	// Same contract over the streaming cursor.
	db.MustExec("CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)")
	rows, err := stmt.Open(42)
	if err != nil {
		t.Fatal(err)
	}
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
	if n != 1 {
		t.Fatalf("cursor rows = %d, want 1", n)
	}
	if !strings.Contains(stmt.Explain(), "INDEXSCAN EMP via EMP_EMPNO") {
		t.Fatalf("cursor open did not recompile against the recreated index:\n%s", stmt.Explain())
	}
}

// TestLiftedSiblingsCompileOnce: ad hoc texts that differ only in
// comparison literals of one selectivity class share one plan, and each
// statement runs it with its own literals.
func TestLiftedSiblingsCompileOnce(t *testing.T) {
	db := empDB(t)
	before := db.PlanCacheStats()
	for _, no := range []int{100, 101, 1500, 7} {
		for _, q := range []string{
			fmt.Sprintf("SELECT EMPNO, NAME FROM EMP WHERE EMPNO = %d", no),
			fmt.Sprintf("SELECT EMPNO FROM EMP WHERE EMPNO BETWEEN %d AND %d AND DNO IN (1, 2, %d)", no, no+5, no%50),
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				if e := r[0].(int64); e < int64(no) || e > int64(no+5) {
					t.Fatalf("%s returned EMPNO %d", q, e)
				}
			}
			if strings.Contains(q, "EMPNO = ") && len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
			}
		}
	}
	after := db.PlanCacheStats()
	if got := after.Compilations - before.Compilations; got != 2 {
		t.Fatalf("8 sibling statements of 2 texts compiled %d times, want 2: %+v", got, after)
	}
	if got := after.Hits - before.Hits; got != 6 {
		t.Fatalf("hits = %d, want 6: %+v", got, after)
	}
}

// TestLiftedKindsNeverShare: the kind of each lifted literal is part of the
// key, so A = 5 and A = 5.0 compile apart, and A = 'x' fails as it did
// before lifting.
func TestLiftedKindsNeverShare(t *testing.T) {
	db := empDB(t)
	before := db.PlanCacheStats()
	for _, q := range []string{"SELECT COUNT(*) FROM EMP WHERE DNO = 5", "SELECT COUNT(*) FROM EMP WHERE DNO = 5.0"} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].(int64) == 0 {
			t.Fatalf("%s counted no rows", q)
		}
	}
	_, err := db.Query("SELECT COUNT(*) FROM EMP WHERE DNO = 'x'")
	if want := "semantic error: cannot compare INTEGER EMP.DNO with VARCHAR 'x'"; err == nil || err.Error() != want {
		t.Fatalf("DNO = 'x': error %v, want %q", err, want)
	}
	after := db.PlanCacheStats()
	if got := after.Compilations - before.Compilations; got != 2 || after.Hits != before.Hits {
		t.Fatalf("DNO = 5 and DNO = 5.0 shared a plan: %d compilations, %d hits", got, after.Hits-before.Hits)
	}
}

// TestLiftedErrorsMatchLiterals: lifting never changes an error: a lifted
// literal is typed and spelled as the literal it replaced, a text the
// parser rejects reports the original's offsets, and a ? in ad hoc text
// (never lifted) still lacks its argument.
func TestLiftedErrorsMatchLiterals(t *testing.T) {
	db := empDB(t)
	for q, want := range map[string]string{
		"SELECT NAME FROM EMP WHERE NAME = 5":                "semantic error: cannot compare VARCHAR EMP.NAME with INTEGER 5",
		"SELECT NAME FROM EMP WHERE NAME BETWEEN 1 AND 'z'":  "semantic error: cannot compare VARCHAR EMP.NAME with INTEGER 1",
		"SELECT NAME FROM EMP WHERE DNO IN (1, 'a')":         "semantic error: cannot compare INTEGER EMP.DNO with VARCHAR 'a'",
		"SELECT NAME FROM EMP WHERE 5 = 5 AND NOPE = 3":      "semantic error: column NOPE cannot be resolved",
		"SELECT NAME FROM EMP WHERE DNO = 5 = 6":             "syntax error at offset 35: unexpected = after statement",
		"EXPLAIN SELECT NAME FROM EMP WHERE DNO = 'x'":       "semantic error: cannot compare INTEGER EMP.DNO with VARCHAR 'x'",
		"SELECT NAME FROM EMP WHERE DNO = ?":                 "exec: statement has 1 host variable(s), 0 argument(s) supplied",
		"SELECT NAME FROM EMP WHERE DNO = ? AND EMPNO = 100": "exec: statement has 1 host variable(s), 0 argument(s) supplied",
	} {
		for run := 0; run < 2; run++ { // cold, then with whatever the first run cached
			_, err := db.Query(q)
			if err == nil || err.Error() != want {
				t.Fatalf("%s (run %d): error %v, want %q", q, run, err, want)
			}
		}
	}
}

// TestExplainShowsOwnLiterals: EXPLAIN and EXPLAIN ANALYZE of a statement
// served a sibling's cached plan print the statement's own literals.
func TestExplainShowsOwnLiterals(t *testing.T) {
	db := empDB(t)
	if _, err := db.Query("SELECT NAME FROM EMP WHERE EMPNO = 100 AND SAL > 1000.5"); err != nil {
		t.Fatal(err)
	}
	for _, explain := range []func(string) (string, error){db.Explain, db.ExplainAnalyze} {
		got, err := explain("SELECT NAME FROM EMP WHERE EMPNO = 1234 AND SAL > 2000.25")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got, "plan cache: hit") {
			t.Fatalf("sibling literal missed the cache:\n%s", got)
		}
		if !strings.Contains(got, "1234") || !strings.Contains(got, "2000.25") ||
			strings.Contains(got, "100 ") || strings.Contains(got, "1000.5") {
			t.Fatalf("plan shows another statement's literals:\n%s", got)
		}
	}
}

// TestPlanCacheConcurrent hammers the cached path from many goroutines while
// DDL and statistics refreshes move the catalog version underneath them —
// the race-enabled guard that no stale plan is ever executed and the cache's
// counters stay coherent. Run with -race in CI. Sibling literals run
// concurrently through one shared lifted plan, each with its own values.
func TestPlanCacheConcurrent(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 10, Jobs: 5, Seed: 5})
	queries := []string{
		"SELECT NAME FROM EMP WHERE EMPNO = 17",
		"SELECT COUNT(*) FROM EMP WHERE DNO = 3",
		"SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO AND E.EMPNO = 17",
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := db.QueryContext(ctx, q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				if len(res.Rows) != 1 {
					t.Errorf("%s: rows = %d, want 1", q, len(res.Rows))
					return
				}
				no := int64(1 + (g*50+i)%300)
				sib := fmt.Sprintf("SELECT EMPNO FROM EMP WHERE EMPNO = %d", no)
				if res, err = db.QueryContext(ctx, sib); err != nil {
					t.Errorf("%s: %v", sib, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].(int64) != no {
					t.Errorf("%s: rows = %v", sib, res.Rows)
					return
				}
				// EXPLAIN re-costs the shared lifted plan the readers run.
				if _, err := db.ExplainContext(ctx, sib); err != nil {
					t.Errorf("EXPLAIN %s: %v", sib, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // the antagonist: DDL and stats churn under the readers
		defer wg.Done()
		for i := 0; i < 10; i++ {
			db.MustExec("DROP INDEX EMP_EMPNO")
			db.MustExec("CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)")
			db.MustExec("UPDATE STATISTICS EMP")
		}
	}()
	wg.Wait()
	s := db.PlanCacheStats()
	if s.Hits == 0 {
		t.Fatalf("concurrent run recorded no cache hits: %+v", s)
	}
	assertClean(t, db)
}

// TestCachedDMLCompilesOnce: literal UPDATEs and DELETEs that differ only in
// WHERE constants of one selectivity class share one plan, EXPLAIN of a
// repeat reports the hit, and UPDATE STATISTICS recompiles the plan once.
func TestCachedDMLCompilesOnce(t *testing.T) {
	db := empDB(t)
	run := func(text string, want int) {
		t.Helper()
		res, err := db.Exec(text)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != want {
			t.Fatalf("%s affected %d rows, want %d", text, res.Affected, want)
		}
	}
	before := db.PlanCacheStats()
	for _, no := range []int{100, 101, 1500, 7} {
		run(fmt.Sprintf("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = %d", no), 1)
		run(fmt.Sprintf("DELETE FROM EMP WHERE EMPNO = %d", no+300), 1)
	}
	after := db.PlanCacheStats()
	if got := after.Compilations - before.Compilations; got != 2 || after.Hits-before.Hits != 6 {
		t.Fatalf("8 UPDATEs and DELETEs of 2 texts compiled %d times with %d hits, want 2 and 6", got, after.Hits-before.Hits)
	}
	plan, err := db.Explain("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = 42")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "plan cache: hit") || !strings.Contains(plan, "EMP_EMPNO") {
		t.Fatalf("EXPLAIN of a cached UPDATE:\n%s", plan)
	}
	db.MustExec("UPDATE STATISTICS EMP")
	s1 := db.PlanCacheStats()
	run("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = 43", 1)
	run("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = 44", 1)
	if s2 := db.PlanCacheStats(); s2.Compilations != s1.Compilations+1 {
		t.Fatalf("UPDATE STATISTICS: the cached UPDATE compiled %d times, want once", s2.Compilations-s1.Compilations)
	}
}
