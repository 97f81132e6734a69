//go:build !race

package exec

// Allocation bounds for the tuple path (the race detector changes
// allocation counts, so these run only without it). Scans decode into a
// reused stage and hand each batch out in two exact chunks, and sorts read
// runs back into shared chunks, so allocation grows with batches and temp
// pages, never with rows.

import (
	"fmt"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// loadWide loads T(A, B, C) with n rows in A order, a clustered index on A,
// and every fifth version deleted, so scans reject versions between the
// rows they return.
func loadWide(t *testing.T, n int) *env {
	t.Helper()
	e := newEnv(t)
	tab, err := e.cat.CreateTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt}, {Name: "B", Type: value.KindInt}, {Name: "C", Type: value.KindFloat}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := value.Row{value.NewInt(int64(i)), value.NewInt(int64((i * 7919) % n)), value.NewFloat(float64(i) / 3)}
		tid, _, err := rss.Insert(tab, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := rss.MarkDeleted(tab, tid, 2, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.cat.CreateIndex("T_A", "T", []string{"A"}, false, true); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics()
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
	return e
}

// TestScanAllocsPerBatch: a segment scan and an index range scan, with
// SARG, residual and snapshot rejections, allocate at most a fixed number
// of times per 256-row batch, beyond what OPEN allocates to resolve its
// bounds and SARGs — the same bound at 256 rows as at 10k. The operator is
// reused across runs, as a nested-loop inner is, so its stage has reached
// its working size.
func TestScanAllocsPerBatch(t *testing.T) {
	const perOpen, perBatch = 10, 2
	for _, n := range []int{320, 12500} { // 256 and 10k rows survive the deletes
		e := loadWide(t, n)
		for _, tc := range []struct {
			query string
			find  func(*op) *op
		}{
			{"SELECT A, B FROM T WHERE B >= 0 AND A <> B", findOp[*plan.SegScan]},
			{fmt.Sprintf("SELECT A, B FROM T WHERE A BETWEEN 0 AND %d AND A <> B ORDER BY A", n), findOp[*plan.IndexScan]},
		} {
			_, q := e.plan(t, tc.query, core.Config{})
			ctx := newBlockCtx(e.rt, q, new(int))
			root, err := ctx.buildRoot()
			if err != nil {
				t.Fatal(err)
			}
			scan := tc.find(root)
			if scan == nil {
				t.Fatalf("unexpected access path:\n%s", q.Explain())
			}
			b := NewBatch(DefaultBatchSize)
			rows, batches := 0, 0
			allocs := testing.AllocsPerRun(3, func() {
				rows, batches = 0, 0
				if err := scan.Open(); err != nil {
					t.Fatal(err)
				}
				for {
					if err := scan.NextBatch(b); err != nil {
						t.Fatal(err)
					}
					if b.Len() == 0 {
						break
					}
					rows += b.Len()
					batches++
				}
				if err := scan.Close(); err != nil {
					t.Fatal(err)
				}
			})
			if rows < n*3/4 {
				t.Fatalf("%s: %d rows from %d versions", tc.query, rows, n)
			}
			if allocs > float64(perOpen+perBatch*batches) {
				t.Errorf("%s: %.0f allocations for %d rows in %d batches, want <= %d + %d per batch",
					tc.query, allocs, rows, batches, perOpen, perBatch)
			}
		}
	}
}

// TestSortAllocsPerTempPage: a whole sorted query — scan, flatten, run
// generation, an intermediate merge pass, read-back and projection —
// allocates O(runs + temp pages), not O(rows): every run writes at least
// one temp page, so a bound per temp page written covers both. Each temp
// page is written once per pass and holds about 150 of these rows; the
// page itself is one allocation, and each 256-row batch costs a handful of
// chunk allocations across the operators. A row-at-a-time sort would
// allocate several times per row: some 400 times per page.
func TestSortAllocsPerTempPage(t *testing.T) {
	const perPage = 8
	e := loadWide(t, 12500)
	// Six buffer pages: runs of 24 KB, more of them than the merge fan-in.
	e.pool = storage.NewBufferPool(e.disk, 6, e.stats)
	e.rt.Pool = e.pool
	_, q := e.plan(t, "SELECT A, B, C FROM T ORDER BY B", core.Config{})
	if findOp[*plan.Sort](mustBuild(t, e, q)) == nil {
		t.Fatalf("plan has no sort:\n%s", q.Explain())
	}
	var rows []value.Row
	var written int64
	allocs := testing.AllocsPerRun(3, func() {
		e.rt.IO = &storage.IOStats{}
		var err error
		rows, _, err = RunQuery(e.rt, q)
		if err != nil {
			t.Fatal(err)
		}
		written = e.rt.IO.Snapshot().PagesWritten
	})
	if len(rows) != 10000 || written == 0 {
		t.Fatalf("%d rows, %d temp pages written", len(rows), written)
	}
	if allocs > float64(perPage*written) {
		t.Errorf("sort of %d rows allocated %.0f times for %d temp pages, want <= %d per page",
			len(rows), allocs, written, perPage)
	}
}

func mustBuild(t *testing.T, e *env, q *plan.Query) *op {
	t.Helper()
	root, err := newBlockCtx(e.rt, q, new(int)).buildRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}
