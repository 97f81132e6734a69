package systemr_test

// Per-statement I/O attribution under concurrency: with every statement
// measuring on its own accumulator, a statement's EXPLAIN ANALYZE must be
// byte-identical (modulo wall times) whether it runs alone or races other
// statements on disjoint tables. Under the old DB-global counters the
// operator fetch deltas and the statement totals absorbed concurrent
// statements' I/O and RSI traffic, so this equality only holds with
// statement-scoped accounting. Run under -race in CI.

import (
	"fmt"
	"sync"
	"testing"

	"systemr"
)

// attributionDB builds two disjoint multi-page tables with indexes and
// statistics over a pool large enough that, once warm, no statement evicts
// another's pages — making per-statement fetch counts exactly reproducible.
func attributionDB(t *testing.T) *systemr.DB {
	t.Helper()
	db := openDB(systemr.Config{BufferPages: 4096})
	for _, tbl := range []string{"T1", "T2"} {
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (A INTEGER, B INTEGER)", tbl))
		db.MustExec(fmt.Sprintf("CREATE INDEX %s_A ON %s (A)", tbl, tbl))
		for i := 0; i < 200; i += 10 {
			stmt := fmt.Sprintf("INSERT INTO %s VALUES ", tbl)
			for j := i; j < i+10; j++ {
				if j > i {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, %d)", j, (j*7)%100)
			}
			db.MustExec(stmt)
		}
	}
	db.MustExec("UPDATE STATISTICS")
	return db
}

func TestConcurrentAttributionExact(t *testing.T) {
	db := attributionDB(t)
	queries := []string{
		"SELECT A, B FROM T1 WHERE A < 50 ORDER BY B",
		"SELECT B FROM T2 WHERE A < 120",
	}

	// Steady state: one warm-up run per query loads the pages and the plan
	// cache, then two more solo runs must already agree with each other —
	// the baseline the concurrent runs are held to.
	solo := make([]string, len(queries))
	for i, q := range queries {
		if _, err := db.ExplainAnalyze(q); err != nil {
			t.Fatal(err)
		}
		first, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		second, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if scrubTimes(first) != scrubTimes(second) {
			t.Fatalf("query %d is not deterministic solo:\n--- first ---\n%s\n--- second ---\n%s", i, first, second)
		}
		solo[i] = scrubTimes(first)
	}

	// Race the two statements: every concurrent run's attribution must equal
	// the solo baseline exactly — no cross-statement fetches, RSI calls, or
	// cost leaking into the operator deltas or the statement totals.
	const goroutinesPerQuery, iters = 2, 10
	var wg sync.WaitGroup
	mismatch := make(chan string, len(queries)*goroutinesPerQuery)
	for i, q := range queries {
		for g := 0; g < goroutinesPerQuery; g++ {
			i, q := i, q
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < iters; n++ {
					out, err := db.ExplainAnalyze(q)
					if err != nil {
						mismatch <- fmt.Sprintf("query %d: %v", i, err)
						return
					}
					if got := scrubTimes(out); got != solo[i] {
						mismatch <- fmt.Sprintf("query %d attribution drifted under concurrency:\n--- solo ---\n%s\n--- concurrent ---\n%s", i, solo[i], got)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(mismatch)
	for m := range mismatch {
		t.Fatal(m)
	}
}

// TestConcurrentLastStatsConsistent checks the statement-scoped ledger from
// the API side: under the same disjoint-table race, with each goroutine also
// updating a table of its own, LastStats — whatever statement it describes —
// always carries one statement's self-consistent numbers, never a blend (a
// blend shows up as a cost exceeding any single statement's solo cost).
func TestConcurrentLastStatsConsistent(t *testing.T) {
	db := attributionDB(t)
	queries := []string{
		"SELECT A, B FROM T1 WHERE A < 50 ORDER BY B",
		"SELECT B FROM T2 WHERE A < 120",
	}
	const goroutines = 4
	updates := make([]string, goroutines)
	for g := range updates {
		db.MustExec(fmt.Sprintf("CREATE TABLE U%d (A INTEGER, B INTEGER)", g))
		db.MustExec(fmt.Sprintf("CREATE INDEX U%d_A ON U%d (A)", g, g))
		for j := 0; j < 20; j++ {
			db.MustExec(fmt.Sprintf("INSERT INTO U%d VALUES (%d, %d)", g, j, j))
		}
		updates[g] = fmt.Sprintf("UPDATE U%d SET B = B + 1 WHERE A < 10", g)
	}
	maxCost := 0.0
	for _, stmt := range append(queries, updates...) {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(stmt); err != nil { // steady state
			t.Fatal(err)
		}
		if c := db.LastStats().Cost(0.033); c > maxCost {
			maxCost = c
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		stmts := []string{queries[g%len(queries)], updates[g]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if _, err := db.Exec(stmts[n%2]); err != nil {
					errs <- err
					return
				}
				if c := db.LastStats().Cost(0.033); c > maxCost {
					errs <- fmt.Errorf("LastStats cost %.2f exceeds any solo statement's %.2f: ledgers blended", c, maxCost)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
