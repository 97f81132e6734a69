package main

// E3-E7: Figure 1 (the example join) and Figures 2-6 (the search tree).

import (
	"fmt"

	"systemr/internal/core"
	"systemr/internal/workload"
)

// expFigure1 runs the paper's example query end to end: the chosen plan,
// the measured cost, and a sample of the result.
func expFigure1() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 40, Jobs: 8, Seed: 17})
	fmt.Println("Query (Figure 1):")
	fmt.Println(workload.Figure1Query)
	fmt.Println()

	q, stats, err := measure(db, workload.Figure1Query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Chosen plan:")
	fmt.Print(q.Explain())
	fmt.Printf("\nMeasured: %d rows, %d page fetches, %d pages written, %d RSI calls, weighted cost %.1f\n",
		stats.Rows, stats.PageFetches, stats.PagesWritten, stats.RSICalls, stats.Cost(core.DefaultW))

	// Contrast with the naive (no optimizer) execution.
	nstats, err := measureNaive(db, workload.Figure1Query)
	if err != nil {
		fmt.Println("naive error:", err)
		return
	}
	fmt.Printf("Naive plan (segment scans, FROM-order nested loops, no SARGs):\n")
	fmt.Printf("Measured: %d rows, %d page fetches, %d RSI calls, weighted cost %.1f\n",
		nstats.Rows, nstats.PageFetches, nstats.RSICalls, nstats.Cost(core.DefaultW))
	if stats.Cost(core.DefaultW) > 0 {
		fmt.Printf("Optimizer speedup: %.1fx cheaper\n",
			nstats.Cost(core.DefaultW)/stats.Cost(core.DefaultW))
	}
}

// expFigures renders the optimizer's search tree for the example join — the
// textual analog of Figures 2 through 6.
func expFigures() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 40, Jobs: 8, Seed: 17})
	tr := &core.Trace{}
	cfg := db.OptimizerConfig()
	cfg.Trace = tr
	q, _, err := planWith(db, cfg, workload.Figure1Query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(tr.Render())
	fmt.Println("\nFinal chosen plan:")
	fmt.Print(q.Explain())
}
