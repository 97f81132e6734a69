package systemr_test

// Benchmark harness: one benchmark per table/figure of the paper plus its
// conclusion-section claims (see DESIGN.md's experiment index; the
// cmd/experiments driver prints the same quantities as tables).
//
// Benchmarks report the paper's cost terms as custom metrics: pages/op
// (page fetches + temporary-list writes) and rsi/op (tuples across the RSS
// interface), alongside Go's ns/op and allocations.

import (
	"fmt"
	"testing"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/exec"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/workload"
)

// runCold executes query once on a cold buffer and accumulates cost metrics.
func runCold(b *testing.B, db *systemr.DB, query string, pages, rsi *int64) {
	b.Helper()
	db.Pool().Flush()
	if _, err := db.Query(query); err != nil {
		b.Fatal(err)
	}
	st := db.LastStats()
	*pages += st.PageFetches + st.PagesWritten
	*rsi += st.RSICalls
}

func reportCost(b *testing.B, pages, rsi int64) {
	b.Helper()
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(rsi)/float64(b.N), "rsi/op")
}

// BenchmarkTable1Selectivity times the optimizer on a predicate-heavy
// single-relation query: catalog lookup + Table 1 selectivity assignment +
// Table 2 path costing dominate.
func BenchmarkTable1Selectivity(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Seed: 1})
	query := `SELECT NAME FROM EMP WHERE DNO = 5 AND SAL BETWEEN 20000 AND 30000
	          AND JOB IN (1, 2, 3) AND (MANAGER = 7 OR MANAGER = 9) AND NOT EMPNO = 0`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.PlanSelect(query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2AccessPaths executes each access-path situation of Table 2
// cold and reports measured pages and RSI calls per operation.
func BenchmarkTable2AccessPaths(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{
		Emps: 8000, Depts: 100, Jobs: 25, Seed: 13, ClusterEmpByDno: true,
	})
	situations := []struct{ name, query string }{
		{"unique_index_eq", "SELECT NAME FROM EMP WHERE EMPNO = 4321"},
		{"clustered_matching", "SELECT NAME FROM EMP WHERE DNO = 42"},
		{"nonclustered_matching", "SELECT NAME FROM EMP WHERE JOB = 7"},
		{"clustered_full_ordered", "SELECT NAME FROM EMP ORDER BY DNO"},
		{"nonclustered_full_ordered", "SELECT NAME FROM EMP ORDER BY JOB"},
		{"segment_scan", "SELECT NAME FROM EMP WHERE MANAGER = -1"},
		{"clustered_range", "SELECT NAME FROM EMP WHERE DNO BETWEEN 10 AND 19"},
	}
	for _, s := range situations {
		b.Run(s.name, func(b *testing.B) {
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCold(b, db, s.query, &pages, &rsi)
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkFigure1ExampleJoin runs the paper's example join with full access
// path selection and with the naive baseline.
func BenchmarkFigure1ExampleJoin(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"optimized", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db := workload.NewEmpDB(workload.EmpConfig{
				Emps: 1500, Depts: 40, Jobs: 8, Seed: 7, Naive: mode.naive,
			})
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCold(b, db, workload.Figure1Query, &pages, &rsi)
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkFigures2to6SearchTree times pure plan enumeration for the example
// join (the work Figures 2-6 illustrate), with the search-tree recorder on.
func BenchmarkFigures2to6SearchTree(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 1500, Depts: 40, Jobs: 8, Seed: 7})
	stmt, err := sql.Parse(workload.Figure1Query)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := db.OptimizerConfig()
		cfg.Trace = &core.Trace{}
		if _, err := core.New(db.Catalog(), cfg).Optimize(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanQuality executes the Figure 1 query under each plan variant
// (E8): compare the chosen plan's measured cost against the alternatives via
// the pages/op and rsi/op metrics.
func BenchmarkPlanQuality(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 3000, Depts: 60, Jobs: 12, Seed: 19})
	variants := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"chosen", func(*core.Config) {}},
		{"nlonly", func(c *core.Config) { c.Joins = core.NestedLoopsOnly }},
		{"mergeonly", func(c *core.Config) { c.Joins = core.MergeOnly }},
		{"nosargs", func(c *core.Config) { c.DisableSargs = true }},
		{"noorders", func(c *core.Config) { c.DisableInterestingOrders = true }},
	}
	stmt, err := sql.Parse(workload.Figure1Query)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := db.OptimizerConfig()
			v.mut(&cfg)
			q, err := core.New(db.Catalog(), cfg).Optimize(blk)
			if err != nil {
				b.Fatal(err)
			}
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Pool().Flush()
				_, st, err := exec.RunQuery(db.Runtime(), q)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.IO.PageFetches + st.IO.PagesWritten
				rsi += st.IO.RSICalls
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkOptimizerScaling times optimization for chain joins of 2..8
// relations, with and without the join-order heuristic (E9).
func BenchmarkOptimizerScaling(b *testing.B) {
	const maxN = 8
	db := systemr.Open(systemr.Config{})
	for t := 1; t <= maxN; t++ {
		db.MustExec(fmt.Sprintf("CREATE TABLE T%d (K INTEGER, V INTEGER)", t))
		for i := 0; i < 100; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO T%d VALUES (%d, %d)", t, i%25, i))
		}
		db.MustExec(fmt.Sprintf("CREATE INDEX T%d_K ON T%d (K)", t, t))
	}
	db.MustExec("UPDATE STATISTICS")

	for n := 2; n <= maxN; n++ {
		query := chainQueryBench(n)
		for _, h := range []struct {
			name    string
			disable bool
		}{{"heuristic", false}, {"exhaustive", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, h.name), func(b *testing.B) {
				stmt, err := sql.Parse(query)
				if err != nil {
					b.Fatal(err)
				}
				blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
				if err != nil {
					b.Fatal(err)
				}
				cfg := db.OptimizerConfig()
				cfg.DisableJoinHeuristic = h.disable
				b.ResetTimer()
				var stats core.SearchStats
				for i := 0; i < b.N; i++ {
					o := core.New(db.Catalog(), cfg)
					if _, err := o.Optimize(blk); err != nil {
						b.Fatal(err)
					}
					stats = o.Stats()
				}
				b.ReportMetric(float64(stats.CandidatesConsidered), "candidates")
				b.ReportMetric(float64(stats.SolutionsStored), "solutions")
			})
		}
	}
}

func chainQueryBench(n int) string {
	from := "T1"
	preds := ""
	for t := 2; t <= n; t++ {
		from += fmt.Sprintf(", T%d", t)
		if preds != "" {
			preds += " AND "
		}
		preds += fmt.Sprintf("T%d.K = T%d.K", t-1, t)
	}
	q := "SELECT T1.V FROM " + from
	if preds != "" {
		q += " WHERE " + preds
	}
	return q
}

// BenchmarkJoinMethods measures nested loops vs merging scans across join
// sizes (E10, the Blasgen-Eswaran comparison).
func BenchmarkJoinMethods(b *testing.B) {
	for _, size := range []struct{ outer, inner int }{{50, 1000}, {1000, 4000}} {
		db := systemr.Open(systemr.Config{BufferPages: 32})
		db.MustExec("CREATE TABLE A (K INTEGER, V INTEGER)")
		db.MustExec("CREATE TABLE B (K INTEGER, W INTEGER)")
		for i := 0; i < size.outer; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO A VALUES (%d, %d)", i%50, i))
		}
		for i := 0; i < size.inner; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO B VALUES (%d, %d)", i%50, i))
		}
		db.MustExec("CREATE INDEX A_K ON A (K)")
		db.MustExec("CREATE INDEX B_K ON B (K)")
		db.MustExec("UPDATE STATISTICS")
		query := "SELECT A.V FROM A, B WHERE A.K = B.K"
		stmt, _ := sql.Parse(query)
		blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			mut  func(*core.Config)
		}{
			{"nestedloops", func(c *core.Config) { c.Joins = core.NestedLoopsOnly }},
			{"mergescan", func(c *core.Config) { c.Joins = core.MergeOnly }},
			{"optimizer_choice", func(*core.Config) {}},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", size.outer, size.inner, m.name), func(b *testing.B) {
				cfg := db.OptimizerConfig()
				m.mut(&cfg)
				q, err := core.New(db.Catalog(), cfg).Optimize(blk)
				if err != nil {
					b.Fatal(err)
				}
				var pages, rsi int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					db.Pool().Flush()
					_, st, err := exec.RunQuery(db.Runtime(), q)
					if err != nil {
						b.Fatal(err)
					}
					pages += st.IO.PageFetches + st.IO.PagesWritten
					rsi += st.IO.RSICalls
				}
				reportCost(b, pages, rsi)
			})
		}
	}
}

// BenchmarkClustering compares the same range scan on clustered vs
// non-clustered layouts (E11).
func BenchmarkClustering(b *testing.B) {
	for _, c := range []struct {
		name      string
		clustered bool
	}{{"clustered", true}, {"nonclustered", false}} {
		b.Run(c.name, func(b *testing.B) {
			db := workload.NewEmpDB(workload.EmpConfig{
				Emps: 8000, Depts: 100, Jobs: 20, Seed: 23, ClusterEmpByDno: c.clustered,
			})
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCold(b, db, "SELECT NAME FROM EMP WHERE DNO BETWEEN 40 AND 49", &pages, &rsi)
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkCorrelatedSubquery compares correlated re-evaluation with the
// outer relation ordered vs unordered on the referenced column (E12).
func BenchmarkCorrelatedSubquery(b *testing.B) {
	query := "SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)"
	for _, c := range []struct {
		name    string
		ordered bool
	}{{"ordered_outer", true}, {"random_outer", false}} {
		b.Run(c.name, func(b *testing.B) {
			db := workload.NewEmpDB(workload.EmpConfig{
				Emps: 1000, Depts: 50, Jobs: 10, Seed: 31, ClusterEmpByDno: c.ordered,
			})
			var pages, rsi int64
			var evals int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCold(b, db, query, &pages, &rsi)
				evals += int64(db.LastStats().SubqueryEvals)
			}
			reportCost(b, pages, rsi)
			b.ReportMetric(float64(evals)/float64(b.N), "subq-evals/op")
		})
	}
}

// BenchmarkSargFiltering measures the RSI savings of search arguments (the
// Section 3 motivation for SARGs).
func BenchmarkSargFiltering(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 8000, Depts: 100, Jobs: 20, Seed: 29})
	query := "SELECT NAME FROM EMP WHERE MANAGER = 17"
	stmt, _ := sql.Parse(query)
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		disable bool
	}{{"sargs", false}, {"nosargs", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := db.OptimizerConfig()
			cfg.DisableSargs = c.disable
			q, err := core.New(db.Catalog(), cfg).Optimize(blk)
			if err != nil {
				b.Fatal(err)
			}
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Pool().Flush()
				_, st, err := exec.RunQuery(db.Runtime(), q)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.IO.PageFetches + st.IO.PagesWritten
				rsi += st.IO.RSICalls
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkInterestingOrders measures the sort avoided when an index
// supplies the required order (the paper's interesting-order bookkeeping).
func BenchmarkInterestingOrders(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 4000, Depts: 80, Seed: 37, ClusterEmpByDno: true})
	query := "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO"
	stmt, _ := sql.Parse(query)
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		disable bool
	}{{"index_order", false}, {"forced_sort", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := db.OptimizerConfig()
			cfg.DisableInterestingOrders = c.disable
			q, err := core.New(db.Catalog(), cfg).Optimize(blk)
			if err != nil {
				b.Fatal(err)
			}
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Pool().Flush()
				_, st, err := exec.RunQuery(db.Runtime(), q)
				if err != nil {
					b.Fatal(err)
				}
				pages += st.IO.PageFetches + st.IO.PagesWritten
				rsi += st.IO.RSICalls
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkPrepareVsAdhoc measures the conclusion's amortization claim:
// compiled statements skip parsing and optimization on every run. The ad hoc
// side runs with the plan cache disabled so it still pays full compilation
// per statement (the cached ad hoc path is measured in plancache_bench_test.go).
func BenchmarkPrepareVsAdhoc(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{
		Emps: 2000, Depts: 50, Jobs: 10, Seed: 43,
		Engine: systemr.Config{PlanCacheSize: -1},
	})
	query := "SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 20000 ORDER BY NAME"
	b.Run("adhoc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		stmt, err := db.Prepare(query)
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

// BenchmarkStatisticsValue measures the Figure 1 join planned with fresh
// statistics vs the no-statistics defaults (E15).
func BenchmarkStatisticsValue(b *testing.B) {
	for _, c := range []struct {
		name    string
		nostats bool
	}{{"with_statistics", false}, {"defaults", true}} {
		b.Run(c.name, func(b *testing.B) {
			db := workload.NewEmpDB(workload.EmpConfig{
				Emps: 8000, Depts: 100, Jobs: 20, Seed: 53, NoStatistics: c.nostats,
			})
			var pages, rsi int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCold(b, db, workload.Figure1Query, &pages, &rsi)
			}
			reportCost(b, pages, rsi)
		})
	}
}

// BenchmarkDMLAccessPaths: UPDATE target location through the chosen access
// path ("retrieval for data manipulation is treated similarly"): a
// unique-key UPDATE touches a handful of pages regardless of table size.
func BenchmarkDMLAccessPaths(b *testing.B) {
	db := workload.NewEmpDB(workload.EmpConfig{
		Emps: 8000, Depts: 100, Jobs: 20, Seed: 41, ClusterEmpByDno: true,
	})
	var pages int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Pool().Flush()
		db.Pool().Stats().Reset()
		if _, err := db.Exec("UPDATE EMP SET SAL = SAL + 1 WHERE EMPNO = 4321"); err != nil {
			b.Fatal(err)
		}
		pages += db.Pool().Stats().Snapshot().PageFetches
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}
