package main

// E10 (join-method crossover), E11 (clustering), E13 (search arguments).

import (
	"fmt"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/workload"
)

// expJoinMethods sweeps the inner relation's cardinality and measures nested
// loops vs merging scans — the Blasgen-Eswaran motivation for supporting
// both methods (Section 5): index-assisted nested loops win when the outer
// is small and selective; merging wins for large unselective joins.
func expJoinMethods() {
	header("outer rows", "inner rows", "NL cost", "merge cost", "winner", "optimizer chose")
	for _, size := range []struct{ outer, inner int }{
		{20, 500}, {100, 2000}, {500, 2000}, {2000, 2000}, {2000, 8000},
	} {
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
		w := core.DefaultW

		nlCfg := db.OptimizerConfig()
		nlCfg.Joins = core.NestedLoopsOnly
		qNL, _, err := planWith(db, nlCfg, query)
		if err != nil {
			panic(err)
		}
		nlStats, _ := measurePlanned(db, qNL)

		mgCfg := db.OptimizerConfig()
		mgCfg.Joins = core.MergeOnly
		qMG, _, err := planWith(db, mgCfg, query)
		if err != nil {
			panic(err)
		}
		mgStats, _ := measurePlanned(db, qMG)

		qDef, _, err := planWith(db, db.OptimizerConfig(), query)
		if err != nil {
			panic(err)
		}
		chose := "nested loops"
		if hasMerge(qDef) {
			chose = "merge scan"
		}
		winner := "nested loops"
		if mgStats.Cost(w) < nlStats.Cost(w) {
			winner = "merge scan"
		}
		fmt.Printf("%10d | %10d | %7.1f | %10.1f | %-12s | %s\n",
			size.outer, size.inner, nlStats.Cost(w), mgStats.Cost(w), winner, chose)
	}
	fmt.Println("\n(Measured weighted costs, cold buffer. The crossover from nested loops")
	fmt.Println(" to merging scans appears as the join grows, as in Blasgen-Eswaran.)")
}

func hasMerge(q interface{ Explain() string }) bool {
	return containsStr(q.Explain(), "MERGEJOIN")
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// expClustering measures the same DNO range scan on a clustered and a
// non-clustered EMP_DNO index: "a clustered index has the property that ...
// each data page containing a tuple from that relation will be touched only
// once" (Section 3).
func expClustering() {
	header("layout", "pred pages", "meas pages", "meas RSI", "rows")
	for _, clustered := range []bool{true, false} {
		db := workload.NewEmpDB(workload.EmpConfig{
			Emps: 8000, Depts: 100, Jobs: 20, Seed: 23, ClusterEmpByDno: clustered,
		})
		q, stats, err := measure(db, "SELECT NAME FROM EMP WHERE DNO BETWEEN 40 AND 49")
		if err != nil {
			panic(err)
		}
		name := "non-clustered EMP_DNO"
		if clustered {
			name = "clustered EMP_DNO"
		}
		fmt.Printf("%-21s | %10.1f | %10d | %8d | %4d\n",
			name, findScan(q.Root).Est().Cost.Pages, stats.PageFetches, stats.RSICalls, stats.Rows)
	}
	fmt.Println("\n(Same query, same data; only physical clustering differs. The paper's")
	fmt.Println(" F(preds)×(NINDX+TCARD) vs F(preds)×(NINDX+NCARD) formulas predict the gap.)")
}

// expSargs measures the RSI-call savings of search arguments: predicates
// evaluated inside the RSS reject tuples without the cost of an RSI call.
func expSargs() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 8000, Depts: 100, Jobs: 20, Seed: 29})
	query := "SELECT NAME FROM EMP WHERE MANAGER = 17" // unindexed → segment scan

	header("configuration", "meas pages", "meas RSI", "weighted cost")
	for _, c := range []struct {
		name    string
		disable bool
	}{{"predicates as SARGs (RSS filters)", false}, {"predicates above the RSI", true}} {
		cfg := db.OptimizerConfig()
		cfg.DisableSargs = c.disable
		q, _, err := planWith(db, cfg, query)
		if err != nil {
			panic(err)
		}
		stats, err := measurePlanned(db, q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-33s | %10d | %8d | %13.1f\n",
			c.name, stats.PageFetches, stats.RSICalls, stats.Cost(core.DefaultW))
	}
	fmt.Println("\n(\"This reduces cost by eliminating the overhead of making RSI calls")
	fmt.Println(" for tuples which can be efficiently rejected in the RSS\", Section 3.)")
}
