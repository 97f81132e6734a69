package systemr_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/exec"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/testutil"
	"systemr/internal/value"
	"systemr/internal/workload"
)

// planQuery analyzes a SELECT and optimizes it with the given config on
// db's catalog: the route by which tests plan under an optimizer ablation
// (another W, join-method set, or histograms off) on a database that plans
// with the defaults. Every plan it makes passes checkCost.
func planQuery(t testing.TB, db *systemr.DB, query string, cfg core.Config) (*plan.Query, *sem.Block) {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		t.Fatalf("analyze %q: %v", query, err)
	}
	q, err := core.New(db.Catalog(), cfg).Optimize(blk)
	if err != nil {
		t.Fatalf("optimize %q: %v", query, err)
	}
	checkCost(t, cfg, q)
	return q, blk
}

// runPlanned analyzes, optimizes (with the given config), and executes a
// SELECT, returning raw rows.
func runPlanned(t *testing.T, db *systemr.DB, query string, cfg core.Config) ([]value.Row, *sem.Block) {
	t.Helper()
	q, blk := planQuery(t, db, query, cfg)
	rows, _, err := db.RunPlanned(q)
	if err != nil {
		t.Fatalf("execute %q: %v\nplan:\n%s", query, err, q.Explain())
	}
	return rows, blk
}

// singleClientRuntime is an ungoverned executor runtime over db with no
// snapshot, so it admits every version without a delete mark: a test uses
// it only while no other transaction writes. batchSize 0 is the default.
func singleClientRuntime(db *systemr.DB, batchSize int) *exec.Runtime {
	return &exec.Runtime{Pool: db.Pool(), Disk: db.Catalog().Disk(), BatchSize: batchSize}
}

// drainings executes q at batch sizes 1 (tuple-at-a-time), 3 (batches that
// split every group and join loop), and 256 (the default), and once through
// the row-at-a-time cursor; the operator protocol must make every one of
// them return the same rows.
func drainings(t *testing.T, db *systemr.DB, q *plan.Query) map[string][]value.Row {
	t.Helper()
	out := make(map[string][]value.Row)
	for _, n := range []int{1, 3, 256} {
		rows, _, err := exec.RunQuery(singleClientRuntime(db, n), q, nil)
		if err != nil {
			t.Fatalf("batch size %d: %v\nplan:\n%s", n, err, q.Explain())
		}
		out[fmt.Sprintf("batch%d", n)] = rows
	}
	cur, err := exec.OpenQuery(singleClientRuntime(db, 0), q, nil)
	if err != nil {
		t.Fatalf("cursor open: %v\nplan:\n%s", err, q.Explain())
	}
	var rows []value.Row
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatalf("cursor: %v\nplan:\n%s", err, q.Explain())
		}
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	out["cursor"] = rows
	return out
}

// ablations are the optimizer configurations under which every plan must
// still produce correct results.
func ablations(base core.Config) map[string]core.Config {
	mk := func(f func(*core.Config)) core.Config {
		c := base
		f(&c)
		return c
	}
	return map[string]core.Config{
		"default":     base,
		"noheuristic": mk(func(c *core.Config) { c.DisableJoinHeuristic = true }),
		"noorders":    mk(func(c *core.Config) { c.DisableInterestingOrders = true }),
		"nosargs":     mk(func(c *core.Config) { c.DisableSargs = true }),
		"nlonly":      mk(func(c *core.Config) { c.Joins = core.NestedLoopsOnly }),
		"mergeonly":   mk(func(c *core.Config) { c.Joins = core.MergeOnly }),
		"tinybuffer":  mk(func(c *core.Config) { c.BufferPages = 2 }),
		"bigW":        mk(func(c *core.Config) { c.W = 10 }),
		"nohist":      mk(func(c *core.Config) { c.DisableHistograms = true }),
		"nlonly_nosargs": mk(func(c *core.Config) {
			c.Joins = core.NestedLoopsOnly
			c.DisableSargs = true
		}),
		"mergeonly_noorders_tiny": mk(func(c *core.Config) {
			c.Joins = core.MergeOnly
			c.DisableInterestingOrders = true
			c.BufferPages = 2
		}),
	}
}

// TestDifferentialRandomQueries cross-checks optimizer+executor output
// against the brute-force reference evaluator over randomized databases and
// queries, under every optimizer ablation, each plan executed at several
// batch sizes and through a cursor, and, for a query with liftable
// literals, ad hoc on a sibling's cached plan and prepared with a ? for
// each literal, planned without their values. DIFF_SEEDS and DIFF_TABLES
// extend the campaign (e.g. DIFF_SEEDS=300 go test -run
// TestDifferentialRandom).
func TestDifferentialRandomQueries(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 6
	}
	if env := os.Getenv("DIFF_SEEDS"); env != "" {
		fmt.Sscanf(env, "%d", &seeds)
	}
	tables := 3
	if env := os.Getenv("DIFF_TABLES"); env != "" {
		fmt.Sscanf(env, "%d", &tables)
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var shared int64 // queries served a sibling's plan
			prepared := 0    // queries run prepared
			rnd := rand.New(rand.NewSource(int64(seed)))
			db := workload.RandomDB(rnd, workload.RandomDBConfig{Tables: tables, MaxRows: 25})
			for qi := 0; qi < 12; qi++ {
				nTables := 1 + rnd.Intn(tables)
				query := workload.RandomQuery(rnd, db, nTables, qi%3 == 0)
				// Reference result (computed once per query).
				stmt, err := sql.Parse(query)
				if err != nil {
					t.Fatalf("parse %q: %v", query, err)
				}
				blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
				if err != nil {
					t.Fatalf("analyze %q: %v", query, err)
				}
				want, err := testutil.RunBlock(db.Catalog().Disk(), blk)
				if err != nil {
					t.Fatalf("reference %q: %v", query, err)
				}
				// Cached, lifted: a sibling text with other literals warms the
				// plan cache first, then the query runs ad hoc, on the
				// sibling's plan whenever their selectivity classes agree.
				if sib, ok := siblingText(query); ok {
					if _, err := db.Query(sib); err != nil {
						t.Fatalf("sibling %q: %v", sib, err)
					}
					hits := db.PlanCacheStats().Hits
					res, err := db.Query(query)
					if err != nil {
						t.Fatalf("cached, lifted %q: %v", query, err)
					}
					if db.PlanCacheStats().Hits > hits {
						shared++
						checkHitExplain(t, db, query)
					}
					if got := nativeRows(res); !testutil.SameMultiset(got, want) {
						t.Fatalf("cached, lifted after %q: result mismatch for %q\nwant %d rows, got %d rows",
							sib, query, len(want), len(got))
					}
				}
				// Prepared: the lifted text's ? have no values at compile
				// time; each run binds the lifted literals as arguments.
				if lifted, lits, _ := sql.Lift(query); len(lits) > 0 {
					if _, err := sql.Parse(lifted); err == nil {
						stmt, err := db.Prepare(lifted)
						if err != nil {
							t.Fatalf("prepare %q: %v", lifted, err)
						}
						res, err := stmt.Run(hostArgs(lits)...)
						if err != nil {
							t.Fatalf("prepared %q: %v", lifted, err)
						}
						if got := nativeRows(res); !testutil.SameMultiset(got, want) {
							t.Fatalf("prepared %q with %v: result mismatch for %q\nwant %d rows, got %d rows\nplan:\n%s",
								lifted, lits, query, len(want), len(got), stmt.Explain())
						}
						prepared++
					}
				}
				for name, cfg := range costAblations(db.OptimizerConfig()) {
					q, err := core.New(db.Catalog(), cfg).Optimize(blk)
					if err != nil {
						t.Fatalf("optimize %q: %v", query, err)
					}
					checkCost(t, cfg, q)
					for drain, got := range drainings(t, db, q) {
						if !testutil.SameMultiset(got, want) {
							t.Fatalf("config %s, %s: result mismatch for %q\nwant %d rows, got %d rows\nplan:\n%s",
								name, drain, query, len(want), len(got), q.Explain())
						}
					}
				}
			}
			if shared == 0 {
				t.Fatal("no query was served a sibling's lifted plan")
			}
			if prepared == 0 {
				t.Fatal("no query ran prepared")
			}
		})
	}
}

// siblingText returns query with every literal sql.Lift lifts moved to
// another value of its kind, or false when it lifts none.
func siblingText(query string) (string, bool) {
	lifted, lits, _ := sql.Lift(query)
	if len(lits) == 0 {
		return "", false
	}
	var b strings.Builder
	quoted := false
	for i := 0; i < len(lifted); i++ {
		c := lifted[i]
		switch {
		case c == '\'':
			quoted = !quoted
		case c == '?' && !quoted:
			v := lits[0]
			lits = lits[1:]
			switch v.Kind {
			case value.KindInt:
				v = value.NewInt(v.Int + 1)
			case value.KindFloat:
				v = value.NewFloat(v.Float + 0.5)
			default:
				v = value.NewString(v.Str + "z")
			}
			lit := v.SQL()
			if v.Kind == value.KindFloat && !strings.ContainsAny(lit, ".e") {
				lit += ".0" // still a FLOAT literal
			}
			b.WriteString(lit)
			continue
		}
		b.WriteByte(c)
	}
	return b.String(), true
}

// hostArgs converts engine values to Stmt.Run arguments.
func hostArgs(vals []value.Value) []any {
	args := make([]any, len(vals))
	for i, v := range vals {
		switch v.Kind {
		case value.KindInt:
			args[i] = v.Int
		case value.KindFloat:
			args[i] = v.Float
		case value.KindString:
			args[i] = v.Str
		}
	}
	return args
}

// nativeRows converts a Result's rows back to engine values.
func nativeRows(res *systemr.Result) []value.Row {
	out := make([]value.Row, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make(value.Row, len(r))
		for j, v := range r {
			switch x := v.(type) {
			case int64:
				out[i][j] = value.NewInt(x)
			case float64:
				out[i][j] = value.NewFloat(x)
			case string:
				out[i][j] = value.NewString(x)
			default:
				out[i][j] = value.Null()
			}
		}
	}
	return out
}

// TestDifferentialEmpDeptJob cross-checks a battery of handwritten queries
// (the shapes the paper discusses) on the Figure 1 schema.
func TestDifferentialEmpDeptJob(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 20, Jobs: 8, Seed: 42})
	queries := []string{
		workload.Figure1Query,
		"SELECT NAME FROM EMP WHERE SAL > 30000",
		"SELECT NAME FROM EMP WHERE DNO = 7 AND JOB = 3",
		"SELECT NAME FROM EMP WHERE DNO = 7 OR JOB = 3",
		"SELECT NAME FROM EMP WHERE SAL BETWEEN 20000 AND 30000 AND DNO IN (1, 2, 3)",
		"SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME",
		"SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO",
		"SELECT LOC, COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO GROUP BY LOC",
		"SELECT DISTINCT JOB FROM EMP WHERE SAL > 25000",
		"SELECT NAME FROM EMP WHERE SAL = (SELECT MAX(SAL) FROM EMP)",
		"SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
		"SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)",
		"SELECT NAME FROM EMP X WHERE SAL > (SELECT SAL FROM EMP WHERE EMPNO = X.MANAGER)",
		"SELECT TITLE, MIN(SAL), MAX(SAL) FROM EMP, JOB WHERE EMP.JOB = JOB.JOB GROUP BY TITLE ORDER BY TITLE DESC",
		"SELECT NAME FROM EMP WHERE NOT (SAL < 20000 OR SAL > 40000) AND JOB <> 2",
		"SELECT E.NAME, M.NAME FROM EMP E, EMP M WHERE E.MANAGER = M.EMPNO AND E.SAL > M.SAL",
		// A predicate spanning three relations stays residual at the final join.
		"SELECT E.NAME FROM EMP E, DEPT D, JOB J WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND E.SAL + D.DNO > J.JOB * 1000",
		// Non-equi join predicate pushed as a parameterized range SARG.
		"SELECT E.NAME FROM EMP E, DEPT D WHERE E.DNO < D.DNO AND D.DNO = 3",
		// Two equi-join predicates between the same pair: one becomes the
		// merge predicate, the other an ordinary (residual) predicate.
		"SELECT E.NAME FROM EMP E, EMP M WHERE E.MANAGER = M.EMPNO AND E.JOB = M.JOB",
	}
	for _, query := range queries {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
		if err != nil {
			t.Fatalf("analyze %q: %v", query, err)
		}
		want, err := testutil.RunBlock(db.Catalog().Disk(), blk)
		if err != nil {
			t.Fatalf("reference %q: %v", query, err)
		}
		for name, cfg := range ablations(db.OptimizerConfig()) {
			got, _ := runPlanned(t, db, query, cfg)
			if !testutil.SameMultiset(got, want) {
				q, _ := core.New(db.Catalog(), cfg).Optimize(blk)
				t.Fatalf("config %s: mismatch for %q: want %d rows, got %d\nplan:\n%s",
					name, query, len(want), len(got), q.Explain())
			}
		}
	}
}

// TestOrderByIsHonored verifies that executed output respects ORDER BY even
// when the optimizer picks an index-ordered plan instead of sorting.
func TestOrderByIsHonored(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 400, Depts: 25, Seed: 7})
	for _, query := range []string{
		"SELECT DNO, NAME FROM EMP ORDER BY DNO",
		"SELECT DNO, SAL FROM EMP WHERE SAL > 15000 ORDER BY DNO",
		"SELECT SAL, NAME FROM EMP ORDER BY SAL DESC",
		"SELECT DNO, DNAME FROM DEPT ORDER BY DNO",
	} {
		rows, blk := runPlanned(t, db, query, db.OptimizerConfig())
		if len(rows) == 0 {
			t.Fatalf("%q returned nothing", query)
		}
		// The ORDER BY column is projected first in each of these queries.
		desc := blk.OrderBy[0].Desc
		for i := 1; i < len(rows); i++ {
			cmp := value.Compare(rows[i-1][0], rows[i][0])
			if desc {
				cmp = -cmp
			}
			if cmp > 0 {
				t.Fatalf("%q: row %d out of order: %v then %v", query, i, rows[i-1], rows[i])
			}
		}
	}
}

// TestCrossCorrelatedSubqueryInJoin covers the factor-dependency bug where a
// subquery correlates on a different relation of the same block: the factor
// must wait until that relation is joined.
func TestCrossCorrelatedSubqueryInJoin(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 200, Depts: 10, Jobs: 5, Seed: 83})
	queries := []string{
		// The subquery correlates on D, the compared column is on E.
		`SELECT E.NAME FROM EMP E, DEPT D
		 WHERE E.DNO = D.DNO AND E.SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = D.DNO)`,
		// Correlates on both relations.
		`SELECT E.NAME FROM EMP E, DEPT D
		 WHERE E.DNO = D.DNO AND 0 < (SELECT COUNT(*) FROM JOB WHERE JOB = E.JOB AND TITLE <> D.LOC)`,
	}
	for _, query := range queries {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		want, err := testutil.RunBlock(db.Catalog().Disk(), blk)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range ablations(db.OptimizerConfig()) {
			got, _ := runPlanned(t, db, query, cfg)
			if !testutil.SameMultiset(got, want) {
				t.Fatalf("config %s: mismatch for %q: want %d rows, got %d", name, query, len(want), len(got))
			}
		}
	}
}
