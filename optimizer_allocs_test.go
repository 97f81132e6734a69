//go:build !race

package systemr_test

// The race detector changes allocation counts, so this file runs only
// without it.

import (
	"fmt"
	"testing"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/workload"
)

// TestOptimizerAllocs bounds the allocations of one optimization, the work
// an ad hoc statement's plan cache miss pays: the Figure 1 join with the
// search tree recorded (BenchmarkFigures2to6SearchTree) and chain joins
// searched exhaustively and under the join-order heuristic
// (BenchmarkOptimizerScaling). Each bound is the count measured when it was
// set, after each node kind's cost moved into one function (the search had
// allocated 1,115, 10,037 and 4,874 times before): a change may lower it,
// never raise it unawares.
func TestOptimizerAllocs(t *testing.T) {
	emp := openEmpDB(workload.EmpConfig{Emps: 1500, Depts: 40, Jobs: 8, Seed: 7})
	chain := openDB(systemr.Config{})
	for i := 1; i <= 6; i++ {
		chain.MustExec(fmt.Sprintf("CREATE TABLE T%d (K INTEGER, V INTEGER)", i))
		for j := 0; j < 100; j++ {
			chain.MustExec(fmt.Sprintf("INSERT INTO T%d VALUES (%d, %d)", i, j%25, j))
		}
		chain.MustExec(fmt.Sprintf("CREATE INDEX T%d_K ON T%d (K)", i, i))
	}
	chain.MustExec("UPDATE STATISTICS")
	for _, c := range []struct {
		name       string
		db         *systemr.DB
		query      string
		trace      bool
		exhaustive bool
		max        float64
	}{
		{"figure1", emp, workload.Figure1Query, true, false, 1087},
		{"chain5/exhaustive", chain, chainQueryBench(5), false, true, 9970},
		{"chain6/heuristic", chain, chainQueryBench(6), false, false, 4826},
	} {
		stmt, err := sql.Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := sem.Analyze(stmt.(*sql.SelectStmt), c.db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			cfg := c.db.OptimizerConfig()
			cfg.DisableJoinHeuristic = c.exhaustive
			if c.trace {
				cfg.Trace = &core.Trace{}
			}
			if _, err := core.New(c.db.Catalog(), cfg).Optimize(blk); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocations per optimization, want at most %.0f", c.name, got, c.max)
		}
	}
}
