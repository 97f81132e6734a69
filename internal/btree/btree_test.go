package btree

import (
	"math/rand"
	"sort"
	"testing"

	"systemr/internal/storage"
	"systemr/internal/value"
)

func key(vs ...int64) value.Row {
	row := make(value.Row, len(vs))
	for i, v := range vs {
		row[i] = value.NewInt(v)
	}
	return row
}

func tid(n int) storage.TID { return storage.TID{Page: storage.PageID(n / 100), Slot: uint16(n % 100)} }

func newTestTree(order int) (*BTree, *storage.Disk) {
	disk := storage.NewDisk()
	return New(disk, Config{Order: order}), disk
}

func TestInsertAndIterate(t *testing.T) {
	tree, _ := newTestTree(4) // tiny order forces deep trees
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if !tree.Insert(key(int64(i)), tid(i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	it := tree.Seek(storage.StmtIO{}, nil)
	for want := 0; want < n; want++ {
		e, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended early at %d", want)
		}
		if e.Key[0].Int != int64(want) {
			t.Fatalf("want %d, got %d", want, e.Key[0].Int)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("iterator should be exhausted")
	}
	if tree.Height() < 3 {
		t.Fatalf("500 keys at order 4 should be deep, height=%d", tree.Height())
	}
}

func TestDuplicateKeysAndExactDuplicates(t *testing.T) {
	tree, _ := newTestTree(4)
	for i := 0; i < 50; i++ {
		if !tree.Insert(key(7), tid(i)) {
			t.Fatalf("duplicate key with distinct TID must insert (%d)", i)
		}
	}
	if tree.Insert(key(7), tid(3)) {
		t.Fatal("exact (key,tid) duplicate must be rejected")
	}
	if tree.Len() != 50 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestSeekPrefix(t *testing.T) {
	tree, _ := newTestTree(4)
	// Composite keys (i, j) for i in 0..9, j in 0..9.
	for i := int64(0); i < 10; i++ {
		for j := int64(0); j < 10; j++ {
			tree.Insert(key(i, j), tid(int(i*10+j)))
		}
	}
	it := tree.Seek(storage.StmtIO{}, []value.Value{value.NewInt(4)})
	count := 0
	for {
		e, ok := it.Next()
		if !ok || e.Key[0].Int != 4 {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("prefix seek found %d entries with leading key 4, want 10", count)
	}
	// Full-key seek.
	it = tree.Seek(storage.StmtIO{}, []value.Value{value.NewInt(4), value.NewInt(7)})
	e, ok := it.Next()
	if !ok || e.Key[0].Int != 4 || e.Key[1].Int != 7 {
		t.Fatalf("full-key seek landed on %v", e.Key)
	}
	// Seek past the end.
	it = tree.Seek(storage.StmtIO{}, []value.Value{value.NewInt(99)})
	if _, ok := it.Next(); ok {
		t.Fatal("seek past end should be empty")
	}
}

func TestDeleteAgainstOracle(t *testing.T) {
	tree, _ := newTestTree(6)
	rnd := rand.New(rand.NewSource(2))
	type entry struct {
		k int64
		t storage.TID
	}
	var oracle []entry
	for i := 0; i < 400; i++ {
		k := int64(rnd.Intn(60))
		e := entry{k: k, t: tid(i)}
		oracle = append(oracle, e)
		tree.Insert(key(k), e.t)
	}
	// Delete a random half.
	rnd.Shuffle(len(oracle), func(i, j int) { oracle[i], oracle[j] = oracle[j], oracle[i] })
	half := len(oracle) / 2
	for _, e := range oracle[:half] {
		if !tree.Delete(key(e.k), e.t) {
			t.Fatalf("delete of existing entry (%d,%v) failed", e.k, e.t)
		}
	}
	if tree.Delete(key(oracle[0].k), oracle[0].t) {
		t.Fatal("deleting twice must fail")
	}
	remaining := oracle[half:]
	sort.Slice(remaining, func(i, j int) bool {
		if remaining[i].k != remaining[j].k {
			return remaining[i].k < remaining[j].k
		}
		return remaining[i].t.Compare(remaining[j].t) < 0
	})
	it := tree.Seek(storage.StmtIO{}, nil)
	for i, e := range remaining {
		got, ok := it.Next()
		if !ok {
			t.Fatalf("tree ended at %d of %d", i, len(remaining))
		}
		if got.Key[0].Int != e.k || got.TID != e.t {
			t.Fatalf("entry %d: got (%d,%v), want (%d,%v)", i, got.Key[0].Int, got.TID, e.k, e.t)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("extra entries after oracle exhausted")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	tree, _ := newTestTree(4)
	for i := 0; i < 100; i++ {
		tree.Insert(key(int64(i%25)), tid(i)) // 25 distinct keys, 4 dups each
	}
	icard, icardLead, nindx, low, high := tree.Stats()
	if icard != 25 || icardLead != 25 {
		t.Fatalf("ICARD=%d lead=%d, want 25", icard, icardLead)
	}
	if nindx != tree.NumPages() || nindx < 2 {
		t.Fatalf("NINDX=%d NumPages=%d", nindx, tree.NumPages())
	}
	if low.Int != 0 || high.Int != 24 {
		t.Fatalf("low=%v high=%v", low, high)
	}
}

func TestStatsCompositeLeadingColumn(t *testing.T) {
	tree, _ := newTestTree(8)
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 20; j++ {
			tree.Insert(key(i, j), tid(int(i*100+j)))
		}
	}
	icard, icardLead, _, _, _ := tree.Stats()
	if icard != 100 {
		t.Fatalf("composite ICARD=%d, want 100", icard)
	}
	if icardLead != 5 {
		t.Fatalf("leading-column ICARD=%d, want 5", icardLead)
	}
}

func TestPageAccounting(t *testing.T) {
	disk := storage.NewDisk()
	tree := New(disk, Config{Order: 4})
	for i := 0; i < 200; i++ {
		tree.Insert(key(int64(i)), tid(i))
	}
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(disk, 1000, stats)

	// A point seek touches one node per level.
	// Boundary keys may step into the following leaf, so allow height+1.
	tree.Seek(pool.View(nil), []value.Value{value.NewInt(150)})
	descent := stats.Snapshot().LogicalReads
	if descent < int64(tree.Height()) || descent > int64(tree.Height())+1 {
		t.Fatalf("descent touched %d pages, height is %d", descent, tree.Height())
	}

	// A full scan touches each leaf exactly once after the initial descent
	// (chained leaves: NEXT never re-touches upper levels).
	stats.Reset()
	pool.Flush()
	it := tree.Seek(pool.View(nil), nil)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	reads := stats.Snapshot().LogicalReads
	max := int64(tree.NumPages())
	if reads > max {
		t.Fatalf("full scan touched %d pages, tree has only %d", reads, max)
	}
	if reads < int64(tree.Height()) {
		t.Fatalf("full scan touched only %d pages", reads)
	}
}

func TestEmptyTree(t *testing.T) {
	tree, _ := newTestTree(4)
	if _, ok := tree.Seek(storage.StmtIO{}, nil).Next(); ok {
		t.Fatal("empty tree must iterate nothing")
	}
	if tree.Delete(key(1), tid(1)) {
		t.Fatal("delete on empty tree must fail")
	}
	icard, icardLead, nindx, _, _ := tree.Stats()
	if icard != 0 || icardLead != 0 || nindx != 1 {
		t.Fatalf("empty stats: %d %d %d", icard, icardLead, nindx)
	}
}

func TestComparePrefix(t *testing.T) {
	full := value.Row{value.NewInt(3), value.NewInt(7)}
	if ComparePrefix(full, []value.Value{value.NewInt(3)}) != 0 {
		t.Fatal("prefix match")
	}
	if ComparePrefix(full, []value.Value{value.NewInt(4)}) >= 0 {
		t.Fatal("full < prefix")
	}
	if ComparePrefix(full, []value.Value{value.NewInt(3), value.NewInt(6)}) <= 0 {
		t.Fatal("full > prefix on second column")
	}
	if ComparePrefix(full, nil) != 0 {
		t.Fatal("empty prefix matches everything")
	}
}

func TestMixedTypeKeys(t *testing.T) {
	tree, _ := newTestTree(4)
	tree.Insert(value.Row{value.NewString("bob")}, tid(1))
	tree.Insert(value.Row{value.NewString("alice")}, tid(2))
	tree.Insert(value.Row{value.NewString("carol")}, tid(3))
	it := tree.Seek(storage.StmtIO{}, []value.Value{value.NewString("b")})
	e, ok := it.Next()
	if !ok || e.Key[0].Str != "bob" {
		t.Fatalf("string seek landed on %v", e.Key)
	}
}

func TestBulkLoadMatchesIncrementalBuild(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: key(int64(rnd.Intn(500))), TID: tid(i)})
	}
	// Include exact duplicates to exercise collapsing.
	entries = append(entries, entries[0], entries[1])

	incDisk := storage.NewDisk()
	inc := New(incDisk, Config{Order: 16})
	for _, e := range entries {
		inc.Insert(e.Key, e.TID)
	}
	bulk := BulkLoad(storage.NewDisk(), Config{Order: 16}, entries)

	if bulk.Len() != inc.Len() {
		t.Fatalf("entry counts differ: bulk %d, incremental %d", bulk.Len(), inc.Len())
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	itA, itB := bulk.Seek(storage.StmtIO{}, nil), inc.Seek(storage.StmtIO{}, nil)
	for {
		a, okA := itA.Next()
		b, okB := itB.Next()
		if okA != okB {
			t.Fatal("iteration lengths differ")
		}
		if !okA {
			break
		}
		if compareEntries(a, b) != 0 {
			t.Fatalf("entries differ: %v vs %v", a, b)
		}
	}
	// Packed pages: the bulk-loaded tree must not be larger.
	if bulk.NumPages() > inc.NumPages() {
		t.Fatalf("bulk load produced more pages (%d) than incremental (%d)",
			bulk.NumPages(), inc.NumPages())
	}
	// Later insertions still work.
	bulk.Insert(key(100000), tid(99999))
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	ic, _, _, _, hi := bulk.Stats()
	if hi.Int != 100000 || ic == 0 {
		t.Fatalf("stats after post-load insert: %d %v", ic, hi)
	}
}

func TestBulkLoadEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 16, 17, 255, 256, 257} {
		var entries []Entry
		for i := 0; i < n; i++ {
			entries = append(entries, Entry{Key: key(int64(i)), TID: tid(i)})
		}
		tree := BulkLoad(storage.NewDisk(), Config{Order: 4}, entries)
		if tree.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Every key findable via point seek.
		for i := 0; i < n; i++ {
			it := tree.Seek(storage.StmtIO{}, key(int64(i)))
			e, ok := it.Next()
			if !ok || e.Key[0].Int != int64(i) {
				t.Fatalf("n=%d: key %d not found", n, i)
			}
		}
	}
}

// TestBulkLoadLeavesStayApart: a bulk load lays its leaves over the sorted
// entries themselves, so an insert into any leaf must copy it out rather
// than write over the next leaf's first entries.
func TestBulkLoadLeavesStayApart(t *testing.T) {
	const n = 1000
	var entries []Entry
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{Key: key(int64(2 * i)), TID: tid(2 * i)})
	}
	tree := BulkLoad(storage.NewDisk(), Config{Order: 16}, entries)
	for i := 0; i < n; i++ {
		tree.Insert(key(int64(2*i+1)), tid(2*i+1))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	it := tree.Seek(storage.StmtIO{}, nil)
	for want := int64(0); want < 2*n; want++ {
		e, ok := it.Next()
		if !ok || e.Key[0].Int != want {
			t.Fatalf("entry %d: got %v (ok=%v), want key %d", want, e.Key, ok, want)
		}
	}
}
