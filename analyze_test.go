package systemr_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"systemr/internal/core"
	"systemr/internal/exec"
)

// scrubTimes replaces the wall-time annotations — the only nondeterministic
// part of EXPLAIN ANALYZE output — so goldens can pin everything else.
var timeRe = regexp.MustCompile(`time=[^}]*`)

func scrubTimes(s string) string { return timeRe.ReplaceAllString(s, "time=X") }

// TestExplainAnalyzeGolden pins EXPLAIN ANALYZE on the paper's EMP/DEPT/JOB
// three-table join: every operator line carries the optimizer's estimated
// rows and cost next to the measured actual rows, loop count, and attributed
// page fetches. The buffer pool is flushed first so the fetch counts are the
// deterministic cold-cache values.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.Pool().Flush()
	got, err := db.ExplainAnalyze("SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND J.TITLE = 'CLERK'")
	if err != nil {
		t.Fatal(err)
	}
	// With histograms the estimates land exactly on the actuals: TITLE has 4
	// distinct values, so TITLE = 'CLERK' estimates 1/4 (one JOB row, 75 EMP
	// matches through the joins) where the Table 1 default of 1/10 used to
	// yield est 30 vs act 75 on every line above the scans. With no ORDER BY
	// there is no interesting order to exploit, so the hash join beats the
	// sort-both-sides merge plan — and wins on actuals too (8 fetches / 106
	// RSI calls). The hash line reports the build side its table was
	// pre-sized from.
	want := strings.Join([]string{
		"QUERY BLOCK (main)",
		"  PROJECT E.NAME, D.DNAME, J.TITLE  {est rows=75.0 cost=10.7 | act rows=75 fetches=0 time=X}",
		"    HASHJOIN build inner[1.0] probe outer[0.1]  {est rows=75.0 cost=10.7 | act rows=75 fetches=0 time=X} [build: est rows=30.0 act rows=30 mem=6230B]",
		"      NLJOIN bind: $3=outer[2.0]  {est rows=75.0 cost=5.3 | act rows=75 fetches=0 time=X}",
		"        SEGSCAN J (JOB) sarg: (c1 = 'CLERK')  {est rows=1.0 cost=1.0 | act rows=1 fetches=1 time=X}",
		"        INDEXSCAN E via EMP_JOB(JOB) key:[$3 .. $3] sarg: (c2 = $3)  {est rows=75.0 cost=4.2 | act rows=75 fetches=6 time=X}",
		"      SEGSCAN D (DEPT)  {est rows=30.0 cost=2.0 | act rows=30 fetches=1 time=X}",
		"statement: fetches=8 writes=0 rsi=106 cost=11.5 (W=0.033)",
		"",
	}, "\n")
	if scrubTimes(got) != want {
		t.Fatalf("EXPLAIN ANALYZE golden drifted.\n--- got ---\n%s\n--- want ---\n%s", scrubTimes(got), want)
	}
}

// TestExplainAnalyzeRowConsistency executes a multi-join query through the
// instrumented operator tree and checks the actuals are internally
// consistent: the root's row count is the statement's row count, page
// fetches attributed across the tree sum to the statement's total, and every
// operator's bookkeeping is self-consistent.
func TestExplainAnalyzeRowConsistency(t *testing.T) {
	db := newEmpDeptJobDB(t)
	q, err := db.PlanSelect("SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB ORDER BY D.DNAME")
	if err != nil {
		t.Fatal(err)
	}
	db.Pool().Flush()
	rows, stats, analysis, err := exec.RunQueryAnalyze(singleClientRuntime(db, 0), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if analysis == nil {
		t.Fatal("no analysis returned")
	}
	if len(rows) != stats.Rows {
		t.Fatalf("stats.Rows=%d, returned %d rows", stats.Rows, len(rows))
	}
	root := analysis.Root
	if root.Stats().Rows != int64(stats.Rows) {
		t.Fatalf("root operator rows=%d, ExecStats rows=%d", root.Stats().Rows, stats.Rows)
	}
	// The statement's fetch total is exactly the root's inclusive delta (no
	// subqueries here), which in turn is the sum of self-attributed fetches.
	if root.Stats().Fetches != stats.IO.PageFetches {
		t.Fatalf("root inclusive fetches=%d, statement fetches=%d", root.Stats().Fetches, stats.IO.PageFetches)
	}
	var selfSum int64
	var walk func(o exec.Operator)
	walk = func(o exec.Operator) {
		s := o.Stats()
		if s.Rows > s.Nexts {
			t.Fatalf("%s: rows=%d exceeds next calls=%d", o.Plan().Label(), s.Rows, s.Nexts)
		}
		if s.Opens == 0 && s.Nexts > 0 {
			t.Fatalf("%s: produced rows without being opened", o.Plan().Label())
		}
		self := s.Fetches
		for _, k := range o.Children() {
			if k.Stats().Fetches > s.Fetches {
				t.Fatalf("%s: child inclusive fetches exceed parent's", o.Plan().Label())
			}
			self -= k.Stats().Fetches
		}
		if self < 0 {
			t.Fatalf("%s: negative self fetches %d", o.Plan().Label(), self)
		}
		selfSum += self
		for _, k := range o.Children() {
			walk(k)
		}
	}
	walk(root)
	if selfSum != stats.IO.PageFetches {
		t.Fatalf("self-attributed fetches sum to %d, statement total %d", selfSum, stats.IO.PageFetches)
	}
}

// TestExplainAnalyzeEstimateVsActual checks the point of the feature: a
// selectivity the Table 1 defaults get wrong shows up as an estimate-vs-
// actual gap on the scan's own line.
func TestExplainAnalyzeEstimateVsActual(t *testing.T) {
	const query = "SELECT NAME FROM EMP WHERE SAL > 10.0"
	db := newEmpDeptJobDB(t)
	// Histograms are disabled so the paper's uniform model is what gets
	// measured: with them on, SAL > 10 estimates exactly 300 (see the golden
	// test) and there is no gap to display.
	cfg := db.OptimizerConfig()
	cfg.DisableHistograms = true
	q, _ := planQuery(t, db, query, cfg)
	_, _, analysis, err := exec.RunQueryAnalyze(singleClientRuntime(db, 0), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// SAL > 10 matches every employee, but the paper's open-range default
	// estimates 1/3 — the scan line must show the divergence.
	got := analysis.Format(core.DefaultW)
	if !strings.Contains(got, "est rows=100.0") || !strings.Contains(got, "act rows=300") {
		t.Fatalf("expected est rows=100.0 vs act rows=300 divergence:\n%s", got)
	}
	if _, err := db.ExplainAnalyze(query); err != nil {
		t.Fatal(err)
	}
	if db.LastStats().Rows != 300 {
		t.Fatalf("EXPLAIN ANALYZE did not publish execution stats: %+v", db.LastStats())
	}
}

// TestExplainAnalyzeSubqueryCounts pins how nested blocks render, on a
// correlated subquery nested in another: every block through the same
// estimate-vs-actual lines, each subquery block headed by how often it was
// evaluated under the Section 6 same-value cache. A subquery block's tree is
// re-opened per evaluation, so its root's loops are its evaluations, as a
// nested-loop inner's are its outer rows. The fetches an evaluation spends
// belong to its own block: the outer scan attributes only DEPT's one page,
// and the self fetches of every block's lines sum to the statement's.
func TestExplainAnalyzeSubqueryCounts(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.Pool().Flush()
	got, err := db.ExplainAnalyze("SELECT DNAME FROM DEPT D WHERE 2 < (SELECT COUNT(*) FROM EMP E " +
		"WHERE E.DNO = D.DNO AND E.SAL > (SELECT AVG(E2.SAL) FROM EMP E2 WHERE E2.JOB = E.JOB))")
	if err != nil {
		t.Fatal(err)
	}
	// 30 departments evaluate the middle block 30 times; each evaluation
	// starts its nested block afresh, and the EMP rows of a department
	// alternate between two jobs, so the nested block runs 60 times.
	want := strings.Join([]string{
		"QUERY BLOCK (main)",
		"  PROJECT D.DNAME  {est rows=10.0 cost=728.9 | act rows=30 fetches=0 time=X}",
		"    SEGSCAN D (DEPT) filter: (2 < (subquery#2))  {est rows=10.0 cost=728.9 | act rows=30 fetches=1 time=X}",
		"QUERY BLOCK (correlated subquery #2)  [evaluated 30 times]",
		"  GROUP agg: COUNT(*)  {est rows=1.0 cost=24.2 | act rows=30 loops=30 fetches=0 time=X}",
		"    INDEXSCAN E via EMP_JOB(JOB) sarg: (c1 = $0) filter: (E.SAL > (subquery#1))  {est rows=3.3 cost=24.2 | act rows=148 loops=30 fetches=4 time=X}",
		"QUERY BLOCK (correlated subquery #1)  [evaluated 60 times]",
		"  GROUP agg: AVG(E2.SAL)  {est rows=1.0 cost=4.2 | act rows=60 loops=60 fetches=0 time=X}",
		"    INDEXSCAN E2 via EMP_JOB(JOB) key:[$0 .. $0] sarg: (c2 = $0)  {est rows=75.0 cost=4.2 | act rows=4500 loops=60 fetches=3 time=X}",
		"statement: fetches=8 writes=0 rsi=4830 cost=167.4 (W=0.033)",
		"",
	}, "\n")
	if scrubTimes(got) != want {
		t.Fatalf("EXPLAIN ANALYZE golden drifted.\n--- got ---\n%s\n--- want ---\n%s", scrubTimes(got), want)
	}
	if n := db.LastStats().SubqueryEvals; n != 90 {
		t.Fatalf("%d subquery evaluations, want 90", n)
	}

	// The same invariants, read off the rendering rather than pinned.
	header := regexp.MustCompile(`^QUERY BLOCK \(.*subquery #\d+\)  \[evaluated (\d+) times?\]$`)
	opLine := regexp.MustCompile(`^( +)\S.*\| act rows=\d+(?: loops=(\d+))? fetches=(\d+) `)
	statement := regexp.MustCompile(`^statement: fetches=(\d+) `)
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var evals, selfSum, total int64
	wantLoops := int64(-1) // the evaluations the next root line must loop
	for _, line := range strings.Split(got, "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			wantLoops = atoi(m[1])
			evals += wantLoops
			continue
		}
		if m := statement.FindStringSubmatch(line); m != nil {
			total = atoi(m[1])
			continue
		}
		m := opLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if wantLoops >= 0 {
			loops := int64(1)
			if m[2] != "" {
				loops = atoi(m[2])
			}
			if len(m[1]) != 2 || loops != wantLoops {
				t.Fatalf("sub-block root %q loops %d, want its %d evaluations", line, loops, wantLoops)
			}
			wantLoops = -1
		}
		selfSum += atoi(m[3]) // each line prints its self-attributed fetches
	}
	if evals != int64(db.LastStats().SubqueryEvals) {
		t.Fatalf("block headers count %d evaluations, the statement %d", evals, db.LastStats().SubqueryEvals)
	}
	if selfSum != total {
		t.Fatalf("self fetches of every block's lines sum to %d, the statement fetched %d", selfSum, total)
	}
}
