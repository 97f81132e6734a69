package main

// E12 — Section 6: correlated subquery evaluation. "A correlation subquery
// must in principle be re-evaluated for each candidate tuple ... However, if
// the referenced relation is ordered on the referenced column, the
// re-evaluation can be made conditional, depending on a test of whether or
// not the current referenced value is the same as the one in the previous
// candidate tuple." The paper adds that the optimizer "can use clues like
// NCARD > ICARD" — this engine costs the re-evaluations into access path
// selection, so it deliberately picks DNO-ordered delivery for the outer
// scan even when that scan is more expensive in isolation.

import (
	"fmt"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/workload"
)

func expNested() {
	query := "SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)"

	header("configuration", "outer rows", "subquery evaluations", "weighted cost")
	type cfg struct {
		name      string
		clustered bool
		naive     bool
	}
	for _, c := range []cfg{
		{"optimizer, EMP clustered on DNO", true, false},
		{"optimizer, EMP unclustered", false, false},
		{"no optimizer (segment scan)", false, true},
	} {
		db := workload.NewEmpDB(workload.EmpConfig{
			Emps: 2000, Depts: 50, Jobs: 10, Seed: 31, ClusterEmpByDno: c.clustered,
		})
		var stats systemr.ExecStats
		var err error
		if c.naive {
			stats, err = measureNaive(db, query)
		} else {
			_, stats, err = measure(db, query)
		}
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-32s | %10d | %20d | %13.1f\n",
			c.name, 2000, stats.SubqueryEvals, stats.Cost(core.DefaultW))
	}
	fmt.Println("\nNon-correlated subqueries evaluate exactly once regardless:")
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10, Seed: 31})
	_, stats, err := measure(db, "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)")
	if err != nil {
		panic(err)
	}
	fmt.Printf("  evaluations: %d (for %d candidate tuples)\n", stats.SubqueryEvals, 2000)
	fmt.Println("\n(The same-value cache re-evaluates once per distinct DNO when tuples")
	fmt.Println(" arrive in DNO order; the optimizer charges re-evaluations per path and")
	fmt.Println(" picks ordered delivery even on unclustered data — ~50 evaluations")
	fmt.Println(" instead of ~2000 for the naive plan.)")
}
