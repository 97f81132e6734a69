// The paper's Figure 1 walkthrough: the EMP/DEPT/JOB clerk query, the
// optimizer's search tree (Figures 2-6), the chosen plan, and the measured
// cost against the no-optimizer baseline.
package main

import (
	"fmt"

	"systemr/internal/core"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/workload"
)

func main() {
	db := workload.NewEmpDB(workload.EmpConfig{Emps: 1500, Depts: 40, Jobs: 8, Seed: 7})

	fmt.Println("Figure 1 query:")
	fmt.Println(workload.Figure1Query)
	fmt.Println()

	// Re-plan with the search-tree tracer attached — the machine is doing
	// exactly what Figures 2-6 of the paper illustrate.
	stmt, err := sql.Parse(workload.Figure1Query)
	if err != nil {
		panic(err)
	}
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		panic(err)
	}
	tr := &core.Trace{}
	cfg := db.OptimizerConfig()
	cfg.Trace = tr
	q, err := core.New(db.Catalog(), cfg).Optimize(blk)
	if err != nil {
		panic(err)
	}
	fmt.Print(tr.Render())
	fmt.Println()
	fmt.Println("Chosen plan:")
	fmt.Print(q.Explain())

	// Execute cold through the public API and report the paper's cost terms.
	db.Pool().Flush()
	res, err := db.Query(workload.Figure1Query)
	if err != nil {
		panic(err)
	}
	st := db.LastStats()
	fmt.Printf("\n%d clerks in Denver departments; measured %d page fetches, %d RSI calls (cost %.1f)\n",
		len(res.Rows), st.PageFetches, st.RSICalls, st.Cost(core.DefaultW))

	// The same database and query, cold, without access path selection.
	cfg = db.OptimizerConfig()
	cfg.Naive = true
	nq, err := core.New(db.Catalog(), cfg).Optimize(blk)
	if err != nil {
		panic(err)
	}
	db.Pool().Flush()
	_, nst, err := db.RunPlanned(nq)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Naive baseline: %d page fetches, %d RSI calls (cost %.1f) — %.0fx more expensive\n",
		nst.IO.PageFetches, nst.IO.RSICalls, nst.IO.Cost(core.DefaultW),
		nst.IO.Cost(core.DefaultW)/st.Cost(core.DefaultW))
}
