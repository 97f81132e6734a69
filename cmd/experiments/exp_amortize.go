package main

// E14 — the conclusion's amortization argument: "This number becomes even
// more insignificant when such a path selector is placed in an environment
// such as System R, where application programs are compiled once and run
// many times. The cost of optimization is amortized over many runs."

import (
	"fmt"
	"time"

	"systemr/internal/core"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/workload"
)

func expAmortize() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10, Seed: 43})
	query := "SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 20000 ORDER BY NAME"
	const runs = 200

	// Parse, analyze and optimize every execution (terminal/ad-hoc style,
	// with no plan cache in front).
	start := time.Now()
	for i := 0; i < runs; i++ {
		stmt, err := sql.Parse(query)
		if err != nil {
			panic(err)
		}
		blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
		if err != nil {
			panic(err)
		}
		q, err := core.New(db.Catalog(), db.OptimizerConfig()).Optimize(blk)
		if err != nil {
			panic(err)
		}
		if _, _, err := db.RunPlanned(q); err != nil {
			panic(err)
		}
	}
	adhoc := time.Since(start)

	// Ad hoc text with a new literal every run: the literals are lifted, and
	// each run whose selectivity class matches a cached plan's runs it.
	before := db.PlanCacheStats()
	start = time.Now()
	for i := 0; i < runs; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > %d ORDER BY NAME", 20000+i)); err != nil {
			panic(err)
		}
	}
	lifted := time.Since(start)
	after := db.PlanCacheStats()

	// Compile once, run many (application-program style).
	stmt, err := db.Prepare(query)
	if err != nil {
		panic(err)
	}
	start = time.Now()
	for i := 0; i < runs; i++ {
		if _, err := stmt.Run(); err != nil {
			panic(err)
		}
	}
	compiled := time.Since(start)

	header("mode", "total for 200 runs", "per run")
	fmt.Printf("%-34s | %18v | %8v\n", "parse+optimize every run", adhoc, adhoc/runs)
	fmt.Printf("%-34s | %18v | %8v\n", "ad hoc, new literal each run", lifted, lifted/runs)
	fmt.Printf("%-34s | %18v | %8v\n", "compiled once (Prepare)", compiled, compiled/runs)
	fmt.Printf("\nOptimization overhead amortized away: %.1f%% of ad-hoc time\n",
		100*float64(adhoc-compiled)/float64(adhoc))
	fmt.Printf("New-literal runs served a cached plan: %d of %d (%d compiled)\n",
		after.Hits-before.Hits, runs, after.Compilations-before.Compilations)
	fmt.Println("(\"application programs are compiled once and run many times; the cost")
	fmt.Println(" of optimization is amortized over many runs\", Conclusion.)")
}
