package testutil

import (
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// The reference evaluator is the oracle for the differential tests, so it
// gets its own spot-checks against hand-computed results.

func setup(t *testing.T) (*catalog.Catalog, *storage.Disk) {
	t.Helper()
	disk := storage.NewDisk()
	cat := catalog.New(disk)
	a, err := cat.CreateTable("A", []catalog.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "V", Type: value.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.CreateTable("B", []catalog.Column{
		{Name: "K", Type: value.KindInt},
		{Name: "W", Type: value.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	// A: (1,10) (1,20) (2,30) ; B: (1,'x') (2,'y') (3,'z')
	for _, r := range []value.Row{
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(1), value.NewInt(20)},
		{value.NewInt(2), value.NewInt(30)},
	} {
		if _, err := rss.Insert(a, r, storage.FrozenXID, storage.NoPrevTID, disk); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []value.Row{
		{value.NewInt(1), value.NewString("x")},
		{value.NewInt(2), value.NewString("y")},
		{value.NewInt(3), value.NewString("z")},
	} {
		if _, err := rss.Insert(b, r, storage.FrozenXID, storage.NoPrevTID, disk); err != nil {
			t.Fatal(err)
		}
	}
	return cat, disk
}

func run(t *testing.T, cat *catalog.Catalog, disk *storage.Disk, query string) []value.Row {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rows, err := RunBlock(disk, blk)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows
}

func TestReferenceJoin(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT A.V, B.W FROM A, B WHERE A.K = B.K")
	if len(rows) != 3 {
		t.Fatalf("join rows: %v", rows)
	}
}

func TestReferenceAggregation(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT K, COUNT(*), SUM(V), AVG(V) FROM A GROUP BY K ORDER BY K")
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	if rows[0][0].Int != 1 || rows[0][1].Int != 2 || rows[0][2].Int != 30 || rows[0][3].Float != 15 {
		t.Fatalf("group 1: %v", rows[0])
	}
	if rows[1][0].Int != 2 || rows[1][1].Int != 1 {
		t.Fatalf("group 2: %v", rows[1])
	}
}

func TestReferenceScalarAggEmpty(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT COUNT(*), MAX(V) FROM A WHERE K = 99")
	if len(rows) != 1 || rows[0][0].Int != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty scalar agg: %v", rows)
	}
}

func TestReferenceOrderingAndDistinct(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT V FROM A ORDER BY V DESC")
	if rows[0][0].Int != 30 || rows[2][0].Int != 10 {
		t.Fatalf("order: %v", rows)
	}
	rows = run(t, cat, disk, "SELECT DISTINCT K FROM A")
	if len(rows) != 2 {
		t.Fatalf("distinct: %v", rows)
	}
}

func TestReferenceSubqueries(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT V FROM A WHERE V > (SELECT AVG(V) FROM A)")
	if len(rows) != 1 || rows[0][0].Int != 30 {
		t.Fatalf("scalar sub: %v", rows)
	}
	rows = run(t, cat, disk, "SELECT W FROM B WHERE K IN (SELECT K FROM A)")
	if len(rows) != 2 {
		t.Fatalf("in sub: %v", rows)
	}
	// Correlated: B rows whose K has at least 2 A-matches.
	rows = run(t, cat, disk,
		"SELECT W FROM B X WHERE 2 <= (SELECT COUNT(*) FROM A WHERE K = X.K)")
	if len(rows) != 1 || rows[0][0].Str != "x" {
		t.Fatalf("correlated: %v", rows)
	}
}

func TestReferenceEmptyCrossProduct(t *testing.T) {
	cat, disk := setup(t)
	if _, err := cat.CreateTable("EMPTY", []catalog.Column{{Name: "X", Type: value.KindInt}}, ""); err != nil {
		t.Fatal(err)
	}
	rows := run(t, cat, disk, "SELECT A.V FROM A, EMPTY")
	if len(rows) != 0 {
		t.Fatalf("cross with empty: %v", rows)
	}
}

func TestSameMultiset(t *testing.T) {
	a := []value.Row{{value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(1)}}
	b := []value.Row{{value.NewInt(2)}, {value.NewInt(1)}, {value.NewInt(1)}}
	if !SameMultiset(a, b) {
		t.Fatal("equal multisets")
	}
	c := []value.Row{{value.NewInt(2)}, {value.NewInt(2)}, {value.NewInt(1)}}
	if SameMultiset(a, c) {
		t.Fatal("different multiplicities must differ")
	}
	if SameMultiset(a, a[:2]) {
		t.Fatal("different sizes must differ")
	}
}

func TestReferenceOperatorsAndNulls(t *testing.T) {
	cat, disk := setup(t)
	cases := []struct {
		q    string
		rows int
	}{
		{"SELECT V FROM A WHERE NOT (V = 10 OR V = 20)", 1},
		{"SELECT V FROM A WHERE V * 2 = 20", 1},
		{"SELECT -V FROM A WHERE V BETWEEN 10 AND 20", 2},
		{"SELECT V FROM A WHERE V NOT BETWEEN 10 AND 20", 1},
		{"SELECT V FROM A WHERE V IN (10, 30)", 2},
		{"SELECT V FROM A WHERE V NOT IN (10, 30)", 1},
		{"SELECT V FROM A WHERE K <> 1", 1},
		{"SELECT V FROM A WHERE K IN (SELECT K FROM B WHERE W = 'nope')", 0},
		{"SELECT A.V FROM A, B WHERE A.K < B.K", 5},
	}
	for _, c := range cases {
		rows := run(t, cat, disk, c.q)
		if len(rows) != c.rows {
			t.Errorf("%q: %d rows, want %d (%v)", c.q, len(rows), c.rows, rows)
		}
	}
}

func TestReferenceHaving(t *testing.T) {
	cat, disk := setup(t)
	rows := run(t, cat, disk, "SELECT K, COUNT(*) FROM A GROUP BY K HAVING COUNT(*) > 1")
	if len(rows) != 1 || rows[0][0].Int != 1 {
		t.Fatalf("having: %v", rows)
	}
	rows = run(t, cat, disk, "SELECT COUNT(*) FROM A HAVING COUNT(*) > 100")
	if len(rows) != 0 {
		t.Fatalf("scalar having: %v", rows)
	}
}

func TestSortedKeyDeterminism(t *testing.T) {
	rows := []value.Row{{value.NewInt(2)}, {value.NewInt(1)}}
	k1 := SortedKey(rows)
	k2 := SortedKey([]value.Row{{value.NewInt(1)}, {value.NewInt(2)}})
	if len(k1) != 2 || k1[0] != k2[0] || k1[1] != k2[1] {
		t.Fatal("sorted keys must be order-insensitive")
	}
}
