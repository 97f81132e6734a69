// Command experiments regenerates every table and figure of the paper's
// evaluation, plus the quantitative claims of its conclusion. Each experiment
// prints a table of paper-predicted vs. measured quantities; EXPERIMENTS.md
// records a reference run.
//
// Usage:
//
//	go run ./cmd/experiments            # run everything
//	go run ./cmd/experiments -run table2
//	go run ./cmd/experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/sql"
)

type experiment struct {
	name string
	desc string
	fn   func()
}

var experiments = []experiment{
	{"table1", "Table 1: selectivity factors, estimated vs measured", expTable1},
	{"table2", "Table 2: single-relation access path costs, predicted vs measured", expTable2},
	{"figure1", "Figure 1: the EMP/DEPT/JOB join example, end to end", expFigure1},
	{"figures", "Figures 2-6: the optimizer search tree for the example join", expFigures},
	{"quality", "Conclusion: does the optimizer pick the true cheapest plan?", expQuality},
	{"optcost", "Conclusion: cost of optimization vs number of joined relations", expOptCost},
	{"joinmethods", "Section 5: nested loops vs merging scans crossover", expJoinMethods},
	{"clustering", "Section 3: clustered vs non-clustered index scans", expClustering},
	{"nested", "Section 6: correlated subquery re-evaluation and caching", expNested},
	{"sargs", "Section 3: RSI calls saved by search arguments", expSargs},
	{"amortize", "Conclusion: compile once, run many — optimization amortized", expAmortize},
	{"statistics", "Section 4: plan choice with and without UPDATE STATISTICS", expStatistics},
	{"weight", "Section 4: the adjustable I/O-vs-CPU weighting factor W", expWeight},
}

func main() {
	run := flag.String("run", "all", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.name, e.desc)
		}
		return
	}
	found := false
	for _, e := range experiments {
		if *run == "all" || *run == e.name {
			found = true
			fmt.Printf("==================================================================\n")
			fmt.Printf("EXPERIMENT %s — %s\n", e.name, e.desc)
			fmt.Printf("==================================================================\n")
			e.fn()
			fmt.Println()
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
		os.Exit(1)
	}
}

// measure runs a query on a cold buffer pool and returns the plan plus the
// measured execution statistics.
func measure(db *systemr.DB, query string) (*plan.Query, systemr.ExecStats, error) {
	q, err := db.PlanSelect(query)
	if err != nil {
		return nil, systemr.ExecStats{}, err
	}
	db.Pool().Flush()
	db.Pool().Stats().Reset()
	if _, err := db.Query(query); err != nil {
		return nil, systemr.ExecStats{}, err
	}
	return q, db.LastStats(), nil
}

// measurePlanned executes an already-built plan cold and returns measured
// stats (for plans produced by non-default optimizer configurations).
func measurePlanned(db *systemr.DB, q *plan.Query) (systemr.ExecStats, error) {
	db.Pool().Flush()
	db.Pool().Stats().Reset()
	_, st, err := db.RunPlanned(q)
	if err != nil {
		return systemr.ExecStats{}, err
	}
	return systemr.ExecStats{
		PageFetches:   st.IO.PageFetches,
		PagesWritten:  st.IO.PagesWritten,
		LogicalReads:  st.IO.LogicalReads,
		RSICalls:      st.IO.RSICalls,
		SubqueryEvals: st.SubqueryEvals,
		Rows:          st.Rows,
	}, nil
}

// measureNaive plans a query with the no-optimizer baseline (segment scans,
// FROM-order nested loops, no search arguments) and executes it cold.
func measureNaive(db *systemr.DB, query string) (systemr.ExecStats, error) {
	cfg := db.OptimizerConfig()
	cfg.Naive = true
	q, _, err := planWith(db, cfg, query)
	if err != nil {
		return systemr.ExecStats{}, err
	}
	return measurePlanned(db, q)
}

// planWith analyzes and optimizes a query under an explicit optimizer
// configuration.
func planWith(db *systemr.DB, cfg core.Config, query string) (*plan.Query, *core.Optimizer, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("not a SELECT: %s", query)
	}
	blk, err := sem.Analyze(sel, db.Catalog())
	if err != nil {
		return nil, nil, err
	}
	o := core.New(db.Catalog(), cfg)
	q, err := o.Optimize(blk)
	return q, o, err
}

// countRows evaluates SELECT COUNT(*) and returns the count.
func countRows(db *systemr.DB, query string) int64 {
	res, err := db.Query(query)
	if err != nil {
		panic(err)
	}
	return res.Rows[0][0].(int64)
}

func header(cols ...string) {
	fmt.Println(strings.Join(cols, " | "))
	sep := make([]string, len(cols))
	for i, c := range cols {
		sep[i] = strings.Repeat("-", len(c))
	}
	fmt.Println(strings.Join(sep, "-+-"))
}
