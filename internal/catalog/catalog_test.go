package catalog_test

import (
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

func newCat() *catalog.Catalog { return catalog.New(storage.NewDisk()) }

func cols(names ...string) []catalog.Column {
	out := make([]catalog.Column, len(names))
	for i, n := range names {
		out[i] = catalog.Column{Name: n, Type: value.KindInt}
	}
	return out
}

func insertRows(t *testing.T, tab *catalog.Table, rows []value.Row) {
	t.Helper()
	for _, r := range rows {
		rec := storage.EncodeVersionedRow(storage.VersionHeader{Xmin: storage.FrozenXID, Prev: storage.NoPrevTID}, r)
		if _, err := tab.Segment.Insert(tab.ID, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := newCat()
	if _, err := c.CreateTable("T", cols("A", "B"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", cols("A"), ""); err == nil {
		t.Fatal("duplicate table (case-insensitive) must fail")
	}
	if _, err := c.CreateTable("U", nil, ""); err == nil {
		t.Fatal("zero columns must fail")
	}
	if _, err := c.CreateTable("V", cols("A", "a"), ""); err == nil {
		t.Fatal("duplicate column must fail")
	}
	tab, ok := c.Table("t")
	if !ok || tab.Name != "T" {
		t.Fatal("case-insensitive lookup failed")
	}
	if tab.ColumnIndex("b") != 1 || tab.ColumnIndex("Z") != -1 {
		t.Fatal("ColumnIndex broken")
	}
}

func TestDropTable(t *testing.T) {
	c := newCat()
	c.CreateTable("T", cols("A"), "")
	if err := c.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("T"); ok {
		t.Fatal("table still visible after drop")
	}
	if err := c.DropTable("T"); err == nil {
		t.Fatal("double drop must fail")
	}
}

func TestSharedSegments(t *testing.T) {
	c := newCat()
	a, _ := c.CreateTable("A", cols("X"), "SEG1")
	b, _ := c.CreateTable("B", cols("X"), "seg1")
	d, _ := c.CreateTable("D", cols("X"), "")
	if a.Segment != b.Segment {
		t.Fatal("same-named segments (case-insensitive) must be shared")
	}
	if a.Segment == d.Segment {
		t.Fatal("private segment must be distinct")
	}
}

func TestCreateIndexAndBulkLoad(t *testing.T) {
	c := newCat()
	tab, _ := c.CreateTable("T", cols("A", "B"), "")
	rows := []value.Row{
		{value.NewInt(3), value.NewInt(30)},
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(2), value.NewInt(20)},
	}
	insertRows(t, tab, rows)
	ix, err := c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk()))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 3 {
		t.Fatalf("bulk load inserted %d entries", ix.Tree.Len())
	}
	it := ix.Tree.Seek(storage.StmtIO{}, nil)
	prev := int64(-1)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Key[0].Int <= prev {
			t.Fatal("index not sorted")
		}
		prev = e.Key[0].Int
	}
	if _, err := c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk())); err == nil {
		t.Fatal("duplicate index name must fail")
	}
	if _, err := c.CreateIndex("T_Z", "T", []string{"Z"}, false, false, testutil.HeapRows(c.Disk())); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, err := c.CreateIndex("U_A", "U", []string{"A"}, false, false, testutil.HeapRows(c.Disk())); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestUniqueIndexViolationOnBuild(t *testing.T) {
	c := newCat()
	tab, _ := c.CreateTable("T", cols("A"), "")
	insertRows(t, tab, []value.Row{{value.NewInt(1)}, {value.NewInt(1)}})
	if _, err := c.CreateIndex("T_A", "T", []string{"A"}, true, false, testutil.HeapRows(c.Disk())); err == nil {
		t.Fatal("unique index over duplicate data must fail")
	} else if !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSingleClusteredIndex(t *testing.T) {
	c := newCat()
	c.CreateTable("T", cols("A", "B"), "")
	if _, err := c.CreateIndex("T_A", "T", []string{"A"}, false, true, testutil.HeapRows(c.Disk())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("T_B", "T", []string{"B"}, false, true, testutil.HeapRows(c.Disk())); err == nil {
		t.Fatal("second clustered index must fail")
	}
	tab, _ := c.Table("T")
	if tab.ClusteredIndex() == nil || tab.ClusteredIndex().Name != "T_A" {
		t.Fatal("ClusteredIndex lookup broken")
	}
}

func TestUpdateStatistics(t *testing.T) {
	c := newCat()
	tab, _ := c.CreateTable("T", []catalog.Column{{Name: "A", Type: value.KindInt}, {Name: "PAD", Type: value.KindString}}, "")
	pad := strings.Repeat("x", 500)
	var rows []value.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i % 8)), value.NewString(pad)})
	}
	insertRows(t, tab, rows)
	c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk()))
	c.UpdateStatistics("", testutil.HeapRows(c.Disk()))

	st := tab.Stats
	if !st.HasStats || st.NCard != 40 {
		t.Fatalf("NCARD: %+v", st)
	}
	// ~510 bytes per record (+slot) → 8 per page → 5 pages.
	if st.TCard < 5 || st.TCard > 7 {
		t.Fatalf("TCARD=%d", st.TCard)
	}
	if st.P != 1.0 {
		t.Fatalf("P=%f for a private segment", st.P)
	}
	ist := tab.Indexes[0].Stats
	if ist.ICard != 8 || ist.ICardLead != 8 {
		t.Fatalf("ICARD=%d lead=%d", ist.ICard, ist.ICardLead)
	}
	if ist.Low.Int != 0 || ist.High.Int != 7 {
		t.Fatalf("key range [%v, %v]", ist.Low, ist.High)
	}
	if ist.NIndx < 1 {
		t.Fatalf("NINDX=%d", ist.NIndx)
	}
}

func TestUpdateStatisticsSharedSegmentP(t *testing.T) {
	c := newCat()
	a, _ := c.CreateTable("A", []catalog.Column{{Name: "PAD", Type: value.KindString}}, "S")
	b, _ := c.CreateTable("B", []catalog.Column{{Name: "PAD", Type: value.KindString}}, "S")
	pad := value.Row{value.NewString(strings.Repeat("y", 1000))}
	for i := 0; i < 12; i++ {
		insertRows(t, a, []value.Row{pad})
	}
	a.Segment.InterleaveBreak()
	for i := 0; i < 12; i++ {
		insertRows(t, b, []value.Row{pad})
	}
	c.UpdateStatistics("", testutil.HeapRows(c.Disk()))
	if a.Stats.P >= 1.0 || b.Stats.P >= 1.0 {
		t.Fatalf("shared segment should give P < 1: A=%f B=%f", a.Stats.P, b.Stats.P)
	}
	if p := a.Stats.P + b.Stats.P; p < 0.99 || p > 1.01 {
		t.Fatalf("P fractions should sum to 1 without shared pages, got %f", p)
	}
}

func TestStatDefaults(t *testing.T) {
	var rs catalog.RelStats
	if rs.EffNCard() != catalog.DefaultNCard || rs.EffTCard() != catalog.DefaultTCard || rs.EffP() != catalog.DefaultP {
		t.Fatal("relation defaults wrong")
	}
	var is catalog.IndexStats
	if is.EffICard() != catalog.DefaultICard || is.EffICardLead() != catalog.DefaultICard || is.EffNIndx() != 1 {
		t.Fatal("index defaults wrong")
	}
	rs = catalog.RelStats{HasStats: true, NCard: 5, TCard: 2, P: 0.5}
	if rs.EffNCard() != 5 || rs.EffTCard() != 2 || rs.EffP() != 0.5 {
		t.Fatal("real statistics not passed through")
	}
}

func TestIndexKeyFor(t *testing.T) {
	c := newCat()
	tab, _ := c.CreateTable("T", cols("A", "B", "C"), "")
	ix, _ := c.CreateIndex("T_CA", "T", []string{"C", "A"}, false, false, testutil.HeapRows(c.Disk()))
	key := ix.KeyFor(value.Row{value.NewInt(1), value.NewInt(2), value.NewInt(3)})
	if key[0].Int != 3 || key[1].Int != 1 {
		t.Fatalf("KeyFor = %v", key)
	}
	names := ix.ColumnNames()
	if names[0] != "C" || names[1] != "A" {
		t.Fatalf("ColumnNames = %v", names)
	}
	_ = tab
	if _, ok := c.Index("t_ca"); !ok {
		t.Fatal("index lookup by name failed")
	}
}

// TestVersionBumps: every DDL statement and statistics refresh advances the
// catalog version; reads and lazy system-catalog materialization do not.
func TestVersionBumps(t *testing.T) {
	c := newCat()
	if c.Version() != 1 {
		t.Fatalf("fresh catalog version = %d, want 1", c.Version())
	}
	step := func(what string, f func()) {
		t.Helper()
		before := c.Version()
		f()
		if c.Version() != before+1 {
			t.Fatalf("%s: version %d -> %d, want +1", what, before, c.Version())
		}
	}
	step("CREATE TABLE", func() { c.CreateTable("T", cols("A"), "") })
	step("CREATE INDEX", func() { c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk())) })
	step("UPDATE STATISTICS", func() { c.UpdateStatistics("", testutil.HeapRows(c.Disk())) })
	step("UPDATE STATISTICS FOR", func() { c.UpdateStatistics("T", testutil.HeapRows(c.Disk())) })
	step("DROP INDEX", func() {
		if err := c.DropIndex("T_A"); err != nil {
			t.Fatal(err)
		}
	})
	step("DROP TABLE", func() {
		if err := c.DropTable("T"); err != nil {
			t.Fatal(err)
		}
	})
	// Reads — including the first Tables() call, which materializes the
	// system catalogs lazily — must not move the version.
	before := c.Version()
	c.Tables()
	c.Table("SYSTABLES")
	if c.Version() != before {
		t.Fatalf("read-side access bumped version %d -> %d", before, c.Version())
	}
}

func TestDropIndex(t *testing.T) {
	c := newCat()
	tab, _ := c.CreateTable("T", cols("A", "B"), "")
	c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk()))
	c.CreateIndex("T_B", "T", []string{"B"}, false, false, testutil.HeapRows(c.Disk()))
	held := tab.Indexes                        // a cached plan's view of the index list
	if err := c.DropIndex("t_a"); err != nil { // case-insensitive
		t.Fatal(err)
	}
	if len(tab.Indexes) != 1 || tab.Indexes[0].Name != "T_B" {
		t.Fatalf("indexes after drop: %v", tab.Indexes)
	}
	if _, ok := c.Index("T_A"); ok {
		t.Fatal("dropped index still resolvable by name")
	}
	// The pre-drop slice must be untouched: compiled plans may still hold it.
	if len(held) != 2 {
		t.Fatalf("drop mutated the previous index slice: %v", held)
	}
	if err := c.DropIndex("NOPE"); err == nil {
		t.Fatal("dropping a missing index must fail")
	}
}

// TestEffICardEmptyIndex: an analyzed index over an empty relation must not
// fall back to catalog.DefaultICard (that would be treating measured emptiness as
// missing statistics) nor divide selectivity by zero — it floors at 1.
func TestEffICardEmptyIndex(t *testing.T) {
	c := newCat()
	c.CreateTable("T", cols("A"), "")
	c.CreateIndex("T_A", "T", []string{"A"}, false, false, testutil.HeapRows(c.Disk()))
	c.UpdateStatistics("", testutil.HeapRows(c.Disk()))
	tab, _ := c.Table("T")
	st := tab.Indexes[0].Stats
	if !st.HasStats {
		t.Fatal("UPDATE STATISTICS should mark the index analyzed")
	}
	if st.EffICard() != 1 || st.EffICardLead() != 1 {
		t.Fatalf("empty analyzed index: EffICard=%v EffICardLead=%v, want 1",
			st.EffICard(), st.EffICardLead())
	}
}
