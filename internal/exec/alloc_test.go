//go:build !race

package exec

// Allocation bounds for the tuple path (the race detector changes
// allocation counts, so these run only without it). Scans decode only the
// versions they return, into a reused stage, and lend it, grouping carves
// its output from chunks, and sorts hold runs as encoded records and copy
// each batch of read-back rows into chunks they reuse, so allocation grows
// with batches and temp pages, never with rows or groups; and batches hold
// room only for the rows that cross them, so a statement's bytes follow the
// rows it moves.

import (
	"fmt"
	"runtime"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/testutil"
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
		tid, err := rss.Insert(tab, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := rss.MarkDeleted(tab, tid, 2, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.cat.CreateIndex("T_A", "T", []string{"A"}, false, true, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
	return e
}

// TestScanAllocsPerBatch: a segment scan and an index range scan, with
// SARG, residual and snapshot rejections, allocate nothing per batch beyond
// what OPEN allocates to resolve its bounds and SARGs — the same bound at
// 256 rows as at 10k: each batch lends the scan's stage, in composites from
// a chunk it reuses. The operator and the batch are reused across runs, as a
// nested-loop inner's are, so the scan's stage, its composite chunk and the
// batch's backing array have grown to their working size in the warm-up
// run.
func TestScanAllocsPerBatch(t *testing.T) {
	const perOpen = 10
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
			scan := tc.find(mustBuild(t, e, q))
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
			if allocs > perOpen {
				t.Errorf("%s: %.0f allocations for %d rows in %d batches, want <= %d",
					tc.query, allocs, rows, batches, perOpen)
			}
		}
	}
}

// loadNames loads N(A INT, S VARCHAR) with n rows in A order, S a
// 23-byte string, and a clustered index on A. xmin creates every version.
func loadNames(t *testing.T, n int, xmin storage.XID) *env {
	t.Helper()
	e := newEnv(t)
	tab, err := e.cat.CreateTable("N", []catalog.Column{
		{Name: "A", Type: value.KindInt}, {Name: "S", Type: value.KindString}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("name-%018d", i))}
		if _, err := rss.Insert(tab, row, xmin, storage.NoPrevTID, e.disk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.cat.CreateIndex("N_A", "N", []string{"A"}, false, true, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
	return e
}

// scanRejectsAll runs query's scan (the one find picks) to its end, after a
// warm-up run, and fails unless it returns no row and allocates at most
// perOpen times — the same at 320 versions as at 12.5k.
func scanRejectsAll(t *testing.T, xmin storage.XID, query string, find func(*op) *op) {
	t.Helper()
	const perOpen = 10
	for _, n := range []int{320, 12500} {
		e := loadNames(t, n, xmin)
		text := fmt.Sprintf(query, n)
		_, q := e.plan(t, text, core.Config{})
		ctx := testBlock(e, q)
		root, err := ctx.buildRoot()
		if err != nil {
			t.Fatal(err)
		}
		found := find(root)
		if found == nil {
			t.Fatalf("unexpected access path:\n%s", q.Explain())
		}
		scan, err := ctx.build(found.node)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(DefaultBatchSize)
		rows := 0
		allocs := testing.AllocsPerRun(3, func() {
			rows = 0
			e.rt.IO = &storage.IOStats{}
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
			}
			if err := scan.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if io := e.rt.IO.Snapshot(); rows != 0 || io.VersionsScanned != int64(n) {
			t.Fatalf("%s: %d rows, %d of %d versions examined", text, rows, io.VersionsScanned, n)
		}
		if allocs > perOpen {
			t.Errorf("%s: %.0f allocations, want <= %d", text, allocs, perOpen)
		}
	}
}

// TestSargRejectsAllocNothing: a segment scan evaluates its SARGs on each
// version's stored record, reading only the columns they name, and decodes
// only the versions it returns. So a SARG on the VARCHAR column that
// rejects every row costs no allocation per version: the scan allocates as
// often over 12.5k versions as over 320. Decoding every version before
// judging it cost one string per version.
func TestSargRejectsAllocNothing(t *testing.T) {
	scanRejectsAll(t, storage.FrozenXID, "SELECT A, S FROM N WHERE S = 'none' AND A <= %d", findOp[*plan.SegScan])
}

// TestInvisibleVersionsAllocNothing: an index scan over versions created
// after its snapshot rejects each on its header, before decoding any of
// it, and allocates as often over 12.5k versions as over 320.
func TestInvisibleVersionsAllocNothing(t *testing.T) {
	scanRejectsAll(t, 20, "SELECT A, S FROM N WHERE A BETWEEN 0 AND %d ORDER BY A", findOp[*plan.IndexScan])
}

// TestGroupAggAllocsPerBatch: grouping allocates per output batch, not per
// group. GROUP BY directly over T's clustered index lends the scan's stage
// and forms one group per surviving row — 256 groups and 10k — and the
// operator tree is reused across runs, so after warm-up each output batch
// costs its row chunk and its composite chunk, whatever the number of
// groups. Four allocations per group (output row, its composite, the
// aggregate values and the states) would cost some 40k here.
func TestGroupAggAllocsPerBatch(t *testing.T) {
	const perOpen, perBatch = 10, 2
	for _, n := range []int{320, 12500} {
		e := loadWide(t, n)
		_, q := e.plan(t, "SELECT A, COUNT(*), SUM(B), MAX(C) FROM T WHERE A <> B GROUP BY A", core.Config{})
		root := mustBuild(t, e, q)
		if _, ok := root.kids[0].impl.(*indexScanOp); !ok {
			t.Fatalf("grouping is not directly over an index scan:\n%s", q.Explain())
		}
		b := NewBatch(DefaultBatchSize)
		groups, batches := 0, 0
		allocs := testing.AllocsPerRun(3, func() {
			groups, batches = 0, 0
			if err := root.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				if err := root.NextBatch(b); err != nil {
					t.Fatal(err)
				}
				if b.Len() == 0 {
					break
				}
				groups += b.Len()
				batches++
			}
			if err := root.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if groups < n*3/4 {
			t.Fatalf("%d groups from %d versions", groups, n)
		}
		if allocs > float64(perOpen+perBatch*batches) {
			t.Errorf("%.0f allocations for %d groups in %d batches, want <= %d + %d per batch",
				allocs, groups, batches, perOpen, perBatch)
		}
	}
}

// TestJoinAllocsPerBatch: each join method allocates per (re-)open of an
// operator below it, never per batch or per joined row — the residual is
// evaluated in place, and kept rows are carved from chunks the join reuses
// once they have grown to a batch. The nested loops and the merge
// join on the indexed K; the hash join on the unindexed G, probing its
// 64-row build once per F row, with a residual that rejects the 64
// candidates with V = K between the kept ones. A composite per joined row
// would cost some 10k allocations here.
//
// A nested loop's inner index scan re-opens once per outer row: it
// re-resolves only its join-bound key and SARG terms, in place, re-seats
// the B-tree iterator it keeps, and lends its rows to the join, which
// copies the current outer row and the inner values of the rows it keeps.
// Every child lends its rows too, so no operator below the join allocates
// per batch either: after the first run the nested loop and the merge join
// allocate nothing, and the hash join 75 times, 64 of them for its build
// keys. When the join's children owned their rows, the merge and hash
// joins allocated twice per batch, and a nested loop built where it owned
// its own rows 130 times.
func TestJoinAllocsPerBatch(t *testing.T) {
	const n = 10000
	e := loadJoin(t, n)
	for _, tc := range []struct {
		name, col string
		cfg       core.Config
		find      func(*op) *op
		perOpen   int64
	}{
		{"nested loops", "K", core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin], 1},
		{"merge", "K", core.Config{Joins: core.MergeOnly}, findOp[*plan.MergeJoin], 10},
		{"hash", "G", core.Config{}, findOp[*plan.HashJoin], 10},
	} {
		_, q := e.plan(t, fmt.Sprintf("SELECT F.V, D.K FROM F, D WHERE F.%s = D.K AND F.V <> D.K", tc.col), tc.cfg)
		join := tc.find(mustBuild(t, e, q))
		if join == nil {
			t.Fatalf("%s: no such join:\n%s", tc.name, q.Explain())
		}
		b := NewBatch(DefaultBatchSize)
		rows, batches, opens := 0, 0, int64(0)
		allocs := testing.AllocsPerRun(3, func() {
			opens0 := subtreeOpens(join)
			rows, batches = 0, 0
			if err := join.Open(); err != nil {
				t.Fatal(err)
			}
			for {
				if err := join.NextBatch(b); err != nil {
					t.Fatal(err)
				}
				if b.Len() == 0 {
					break
				}
				rows += b.Len()
				batches++
			}
			if err := join.Close(); err != nil {
				t.Fatal(err)
			}
			opens = subtreeOpens(join) - opens0
		})
		if rows != n-64 {
			t.Fatalf("%s: %d rows, want %d", tc.name, rows, n-64)
		}
		// A hash build allocates one key string per distinct build key: D.K's
		// 64 values.
		var keys int64
		if _, ok := join.impl.(*hashJoinOp); ok {
			keys = 64
		}
		if allocs > float64(tc.perOpen*opens+keys) {
			t.Errorf("%s: %.0f allocations for %d rows in %d batches, %d opens and %d build keys, want <= %d per open + 1 per build key",
				tc.name, allocs, rows, batches, opens, keys, tc.perOpen)
		}
	}
}

// TestIndexScanReopenAllocsNothing: a nested loop's inner index scan,
// re-opened per outer row, re-resolves its join-bound key in place and
// re-seats the B-tree iterator it keeps on that key, which the iterator
// reads in place: a probe that finds nothing allocates nothing. Each seek
// allocated an iterator and a copy of its key before.
func TestIndexScanReopenAllocsNothing(t *testing.T) {
	e := loadJoin(t, 1000)
	_, q := e.plan(t, "SELECT F.V, D.K FROM F, D WHERE F.K = D.K", core.Config{Joins: core.NestedLoopsOnly})
	join := findOp[*plan.NLJoin](mustBuild(t, e, q))
	if join == nil {
		t.Fatalf("no nested loop:\n%s", q.Explain())
	}
	inner := join.kids[1]
	scan, ok := inner.impl.(*indexScanOp)
	if !ok || len(scan.node.Lo) == 0 {
		t.Fatalf("the inner is not a keyed index scan:\n%s", q.Explain())
	}
	b := NewBatch(DefaultBatchSize)
	probe := func(k int64) int {
		for i := range scan.ctx.params {
			scan.ctx.params[i] = value.NewInt(k)
		}
		if err := inner.Open(); err != nil {
			t.Fatal(err)
		}
		if err := inner.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		n := b.Len()
		if err := inner.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := probe(7); n == 0 { // the first open allocates the iterator
		t.Fatalf("probe of a present key found nothing:\n%s", q.Explain())
	}
	k := int64(1000)
	allocs := testing.AllocsPerRun(100, func() {
		if n := probe(k); n != 0 {
			t.Fatalf("probe of absent key %d found %d rows", k, n)
		}
		k++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per re-open of the inner index scan, want 0", allocs)
	}
}

// subtreeOpens sums the Opens of o and every operator below it.
func subtreeOpens(o *op) int64 {
	n := o.stats.Opens
	for _, k := range o.kids {
		n += subtreeOpens(k)
	}
	return n
}

// TestSmallResultBytes: a statement's executor memory follows the rows it
// moves, not the batch target. A one-row probe and a 10-row range on T's
// clustered key, run whole through RunQuery, stay within a fixed byte
// budget per run: measured at 2,240 and 5,672 bytes, with the scan lending
// its stage to the projection. Reserving the target's 256 row slots up
// front, in the root's batch and in the projection's reader, costs some
// 12 KB by itself.
func TestSmallResultBytes(t *testing.T) {
	e := loadWide(t, 320)
	for _, tc := range []struct {
		query  string
		rows   int
		budget uint64 // bytes per run
	}{
		{"SELECT A, B, C FROM T WHERE A = 17", 1, 2400},
		{"SELECT A, B FROM T WHERE A BETWEEN 100 AND 111", 10, 6 << 10},
	} {
		_, q := e.plan(t, tc.query, core.Config{})
		if findOp[*plan.IndexScan](mustBuild(t, e, q)) == nil {
			t.Fatalf("%s: no index scan:\n%s", tc.query, q.Explain())
		}
		var rows []value.Row
		run := func() {
			var err error
			if rows, _, err = RunQuery(e.rt, q, nil); err != nil {
				t.Fatal(err)
			}
		}
		perRun := bytesPerRun(20, run)
		if len(rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.query, len(rows), tc.rows)
		}
		if perRun > tc.budget {
			t.Errorf("%s: %d bytes allocated per run for %d rows, want <= %d",
				tc.query, perRun, tc.rows, tc.budget)
		}
	}
}

// bytesPerRun returns the heap bytes f allocates per call, averaged over
// runs calls after a warm-up call, on one P as testing.AllocsPerRun
// measures.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSortAllocsPerTempPage: a whole sorted query — scan, flatten, run
// generation, an intermediate merge pass, read-back and projection —
// allocates O(runs + temp pages), not O(rows): every run writes at least
// one temp page, so a bound per temp page written covers both. Each temp
// page is written once per pass and holds about 150 of these rows; the
// page itself is reused from an earlier run's freed pages, and each
// 256-row batch costs a chunk allocation or two across the operators. A
// row-at-a-time sort would allocate several times per row: some 400 times
// per page. Measured: 278 allocations for 136 pages (420 when every temp
// page was a fresh allocation, 607 when runs were held as decoded rows).
func TestSortAllocsPerTempPage(t *testing.T) {
	const perPage = 4
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
		rows, _, err = RunQuery(e.rt, q, nil)
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

// TestSortBytesPerRun: a sort's memory is bounded by its run size, not by
// its input. GROUP BY over a sort of 20k and 40k F rows allocates, per
// run of the query, at most twice BufferBytes — the operators' chunks and
// the merge's read-back rows; run generation's arena and entries come from
// the sorts before it — and a few bytes per temp page for the page lists:
// the pages themselves are freed when the sort closes and reused by the
// next run. Measured: 184 KB for 92 pages and 187 KB for 186, on a 128 KB
// BufferBytes. Growing the arena and entries by doubling in every sort
// cost 1.146 MB and 1.149 MB, also allocating a fresh page per temp page
// 1.60 MB and 2.06 MB, and holding runs as flattened rows of 40-byte
// values 8.3 MB and 15.7 MB: about 190 bytes per row.
func TestSortBytesPerRun(t *testing.T) {
	const multiple, pageBytes = 2, 64
	for _, n := range []int{20000, 40000} {
		e := loadJoin(t, n)
		_, q := e.plan(t, "SELECT G, COUNT(*), SUM(V) FROM F GROUP BY G", core.Config{})
		root := mustBuild(t, e, q)
		if _, ok := root.kids[0].impl.(*sortOp); !ok {
			t.Fatalf("grouping is not over a sort:\n%s", q.Explain())
		}
		var groups int
		var written int64
		perRun := bytesPerRun(3, func() {
			e.rt.IO = &storage.IOStats{}
			rows, _, err := RunQuery(e.rt, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			groups, written = len(rows), e.rt.IO.Snapshot().PagesWritten
		})
		if groups != 64 || written == 0 {
			t.Fatalf("%d groups, %d temp pages written", groups, written)
		}
		bufferBytes := e.pool.Capacity() * storage.PageSize
		if bound := uint64(multiple*bufferBytes) + uint64(written)*pageBytes; perRun > bound {
			t.Errorf("sort of %d rows allocated %d bytes per run for %d temp pages, want <= %d×%d + %d per page = %d",
				n, perRun, written, multiple, bufferBytes, pageBytes, bound)
		}
	}
}

// TestSmallSortAllocs: a sort of one batch pays for its rows once, not for
// arena growth: its arena and entries come from the sorts before it, or
// start with room for a few rows as large as the first. Whole queries
// sorting 49 rows and one row allocate 54 and 50 times; sizing the arena
// and entries afresh in every sort took 66 and 53 allocations, and holding
// runs as decoded rows 74 and 57.
func TestSmallSortAllocs(t *testing.T) {
	e := loadWide(t, 320)
	for _, tc := range []struct {
		query  string
		rows   int
		allocs float64
	}{
		{"SELECT A, B FROM T WHERE A BETWEEN 100 AND 160 ORDER BY B", 49, 54},
		{"SELECT A, B FROM T WHERE A = 17 ORDER BY B", 1, 50},
	} {
		_, q := e.plan(t, tc.query, core.Config{})
		if findOp[*plan.Sort](mustBuild(t, e, q)) == nil {
			t.Fatalf("plan has no sort:\n%s", q.Explain())
		}
		var rows []value.Row
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if rows, _, err = RunQuery(e.rt, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		if len(rows) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.query, len(rows), tc.rows)
		}
		if allocs > tc.allocs {
			t.Errorf("%s: %.0f allocations per run, want <= %.0f", tc.query, allocs, tc.allocs)
		}
	}
}

// TestCorrelatedSubqueryAllocsPerEval bounds what one evaluation of a
// correlated subquery allocates: every outer row of G distinct values
// re-runs the inner block, an index probe under AVG, by re-opening the one
// tree the statement built for it. The per-evaluation count is the
// difference between two table sizes over the difference in evaluations,
// so the statement's fixed allocations cancel out. An evaluation that built
// a cursor, a context, a tree and a batch of its own made 26; a re-opened
// one allocates only the aggregate's output chunks, which double from one
// row to a batch, so about none.
func TestCorrelatedSubqueryAllocsPerEval(t *testing.T) {
	const query = "SELECT V FROM T X WHERE V > (SELECT AVG(V) FROM T WHERE G = X.G)"
	allocs := func(n int) float64 {
		e := newEnv(t)
		tab, err := e.cat.CreateTable("T", []catalog.Column{
			{Name: "G", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}, "")
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < n; g++ {
			if _, err := rss.Insert(tab, value.Row{value.NewInt(int64(g)), value.NewInt(int64(g))}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.cat.CreateIndex("T_G", "T", []string{"G"}, false, true, testutil.HeapRows(e.cat.Disk())); err != nil {
			t.Fatal(err)
		}
		e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
		_, q := e.plan(t, query, core.Config{})
		var stats *Stats
		got := testing.AllocsPerRun(5, func() {
			var err error
			if _, stats, err = RunQuery(e.rt, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		if stats.SubqueryEvals != n {
			t.Fatalf("%d subquery evaluations over %d distinct outer values", stats.SubqueryEvals, n)
		}
		return got
	}
	const small, large = 64, 320
	perEval := (allocs(large) - allocs(small)) / (large - small)
	if max := 1.0; perEval > max {
		t.Errorf("%.2f allocations per correlated subquery evaluation, want at most %.2f", perEval, max)
	}
}

// TestRepeatedCorrelationAllocsNothing: an outer row whose correlation
// value equals the previous row's reuses the last evaluation and allocates
// nothing. O holds ten groups in G order, of 20 and then of 40 rows, so
// both sizes evaluate the subquery over I ten times, with the same inner
// work, and both outer scans have grown their stage to a full page's rows
// (smaller tables allocate less there); the difference in allocations over
// the difference in rows is what a reusing row costs.
func TestRepeatedCorrelationAllocsNothing(t *testing.T) {
	const groups, query = 10, "SELECT COUNT(*) FROM O WHERE V > (SELECT AVG(V) FROM I WHERE I.G = O.G)"
	allocs := func(perGroup int) float64 {
		e := newEnv(t)
		cols := []catalog.Column{{Name: "G", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}
		outer, err := e.cat.CreateTable("O", cols, "")
		if err != nil {
			t.Fatal(err)
		}
		inner, err := e.cat.CreateTable("I", cols, "")
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < groups; g++ {
			rows := []struct {
				tab *catalog.Table
				row value.Row
			}{{inner, value.Row{value.NewInt(int64(g)), value.NewInt(int64(g))}}}
			for i := 0; i < perGroup; i++ {
				rows = append(rows, struct {
					tab *catalog.Table
					row value.Row
				}{outer, value.Row{value.NewInt(int64(g)), value.NewInt(int64(i))}})
			}
			for _, r := range rows {
				if _, err := rss.Insert(r.tab, r.row, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
		_, q := e.plan(t, query, core.Config{})
		var stats *Stats
		got := testing.AllocsPerRun(5, func() {
			var err error
			if _, stats, err = RunQuery(e.rt, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		if stats.SubqueryEvals != groups {
			t.Fatalf("%d subquery evaluations over %d groups of %d rows", stats.SubqueryEvals, groups, perGroup)
		}
		return got
	}
	const small, large = 20, 40
	if perRow := (allocs(large) - allocs(small)) / (groups * (large - small)); perRow > 0 {
		t.Errorf("%.2f allocations per outer row that reuses the last evaluation, want 0", perRow)
	}
}
