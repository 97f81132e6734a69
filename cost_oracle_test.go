package systemr_test

import (
	"regexp"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/workload"
)

// checkCost fails unless core.Cost, at the compile's own values, prices
// every node of q, nested blocks included, exactly as the search that
// planned q under cfg annotated it. It names the lowest node that differs.
func checkCost(t testing.TB, cfg core.Config, q *plan.Query) {
	t.Helper()
	est := core.Cost(q, cfg, nil)
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		if got, ok := est[n]; !ok || got != n.Est() {
			t.Fatalf("core.Cost prices %s at %+v (priced: %v), the search annotated %+v\nplan:\n%s",
				n.Label(), got, ok, n.Est(), q.Explain())
		}
	}
	var block func(q *plan.Query)
	block = func(q *plan.Query) {
		walk(q.Root)
		for _, sp := range q.Subs {
			block(sp.Query)
		}
	}
	block(q)
}

// costAblations are ablations plus the naive baseline: every configuration
// whose plans core.Cost must price as the search did.
func costAblations(base core.Config) map[string]core.Config {
	cfgs := ablations(base)
	base.Naive = true
	cfgs["naive"] = base
	return cfgs
}

// TestCostMatchesAnnotations is the oracle for core.Cost on the EXPLAIN and
// hash-join goldens' queries, under every ablation and the naive baseline:
// planQuery checks each plan it makes (as does the differential campaign)
// against its annotations, bit for bit. The goldens pin a nested loop with a
// pushed join predicate, merge joins over sorted and ordered inputs, a hash
// join and a final sort.
func TestCostMatchesAnnotations(t *testing.T) {
	for _, c := range []struct {
		db      *systemr.DB
		queries []string
	}{
		{abDB(t), []string{
			"SELECT A.V FROM A, B WHERE A.K = B.K AND B.W = 105",
			"SELECT A.V, B.W FROM A, B WHERE A.K = B.K",
			"SELECT V FROM A WHERE K >= 3 ORDER BY K",
			"SELECT A.K, COUNT(*) FROM A, B WHERE A.K = B.K GROUP BY A.K HAVING COUNT(*) > 1",
			"SELECT DISTINCT V FROM A WHERE K IN (SELECT K FROM B WHERE B.W > A.V)",
		}},
		{newEmpDeptJobDB(t), []string{
			"SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
				"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND J.TITLE = 'CLERK'",
			"SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
				"WHERE E.DNO = D.DNO AND E.JOB = J.JOB ORDER BY E.JOB",
		}},
	} {
		for _, query := range c.queries {
			for _, cfg := range costAblations(c.db.OptimizerConfig()) {
				planQuery(t, c.db, query, cfg)
			}
		}
	}
}

// estimates strips EXPLAIN's estimates, leaving the plan's shape, and
// rootRows reads the root's estimated rows.
var (
	estimates = regexp.MustCompile(`  \{[^}]*\}`)
	rootRows  = regexp.MustCompile(`rows=([0-9.]+)\}`)
)

// checkHitExplain fails unless EXPLAIN of query is a plan cache hit that,
// when a fresh compile of query chooses the same plan, prints the fresh
// compile's text. It returns the hit's plan text and whether the plans are
// the same.
func checkHitExplain(t testing.TB, db *systemr.DB, query string) (string, bool) {
	t.Helper()
	got, err := db.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	hit, note, ok := strings.Cut(got, "plan cache: hit")
	if !ok || !strings.HasPrefix(note, " (compiled at catalog version") {
		t.Fatalf("%s: not a plan cache hit:\n%s", query, got)
	}
	fq, _ := planQuery(t, db, query, db.OptimizerConfig())
	fresh := fq.Explain()
	if estimates.ReplaceAllString(hit, "") != estimates.ReplaceAllString(fresh, "") {
		return hit, false // the class's plan is not this literal's own
	}
	if hit != fresh {
		t.Fatalf("%s: a hit's EXPLAIN differs from a fresh compile's\n--- hit ---\n%s--- fresh ---\n%s", query, hit, fresh)
	}
	return hit, true
}

// TestLiftedHitExplainMatchesFreshCompile: EXPLAIN, EXPLAIN ANALYZE and
// Stmt.Explain of a plan cached for a sibling's literals print the
// estimates of the statement's own literals, which a fresh compile prints
// whenever it chooses the same plan. With BETWEEN 200 AND 400 cached, the
// sibling BETWEEN 200 AND 460 estimates 4,090.9 rows, not the cached plan's
// 3,476.0. The differential campaign applies checkHitExplain to every
// random query served a sibling's plan.
func TestLiftedHitExplainMatchesFreshCompile(t *testing.T) {
	db, _ := openSkewDB(workload.SkewConfig{Seed: 7})
	const base = "SELECT VAL FROM EVENTS WHERE KEY BETWEEN "
	if _, err := db.Query(base + "200 AND 400"); err != nil {
		t.Fatal(err)
	}
	for _, bounds := range []string{"200 AND 460", "190 AND 400", "210 AND 420"} {
		query := base + bounds
		hit, same := checkHitExplain(t, db, query)
		if !same {
			t.Fatalf("%s: the cached plan is not the fresh compile's:\n%s", query, hit)
		}
		if bounds == "200 AND 460" && !strings.Contains(hit, "rows=4090.9}") {
			t.Fatalf("%s: want rows=4090.9:\n%s", query, hit)
		}
		stmt, err := db.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		if got := stmt.Explain(); got != hit {
			t.Fatalf("%s: Stmt.Explain differs from a fresh compile's\n--- prepared ---\n%s--- fresh ---\n%s", query, got, hit)
		}
		analyzed, err := db.ExplainAnalyze(query)
		if err != nil {
			t.Fatal(err)
		}
		rows := rootRows.FindStringSubmatch(hit)[1]
		if !strings.Contains(analyzed, "{est rows="+rows+" ") {
			t.Fatalf("%s: EXPLAIN ANALYZE does not estimate the fresh compile's %s rows:\n%s", query, rows, analyzed)
		}
	}
}
