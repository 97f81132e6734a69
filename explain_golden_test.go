package systemr_test

import (
	"strings"
	"testing"

	"systemr"
)

// abDB builds the small deterministic two-table database the EXPLAIN golden
// tests pin their plans against.
func abDB(t *testing.T, cfg systemr.Config) *systemr.DB {
	t.Helper()
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 16
	}
	db := systemr.Open(cfg)
	db.MustExec("CREATE TABLE A (K INTEGER, V INTEGER)")
	db.MustExec("CREATE TABLE B (K INTEGER, W INTEGER)")
	for i := 0; i < 40; i++ {
		db.MustExec("INSERT INTO A VALUES (" + itoa(i%8) + ", " + itoa(i) + ")")
	}
	for i := 0; i < 16; i++ {
		db.MustExec("INSERT INTO B VALUES (" + itoa(i%8) + ", " + itoa(100+i) + ")")
	}
	db.MustExec("CREATE INDEX A_K ON A (K)")
	db.MustExec("CREATE UNIQUE INDEX B_W ON B (W)")
	db.MustExec("UPDATE STATISTICS")
	return db
}

// TestExplainGolden pins the full EXPLAIN text for a small deterministic
// database — a regression net over plan shape, cost arithmetic, and the
// printer. If an intentional optimizer change shifts this plan, update the
// expectation alongside the change.
func TestExplainGolden(t *testing.T) {
	db := abDB(t, systemr.Config{})
	got, err := db.Explain("SELECT A.V FROM A, B WHERE A.K = B.K AND B.W = 105")
	if err != nil {
		t.Fatal(err)
	}
	// B is a single-page relation, so the segment scan beats the unique
	// index probe (1 page vs 1 index page + 1 data page) — exactly what
	// Table 2 prescribes.
	want := strings.Join([]string{
		"QUERY BLOCK (main)",
		"  PROJECT A.V  {cost: pages=1.2 rsi=6.0, rows=5.0}",
		"    NLJOIN bind: $1=outer[1.0]  {cost: pages=1.2 rsi=6.0, rows=5.0}",
		"      SEGSCAN B sarg: (c1 = 105)  {cost: pages=1.0 rsi=1.0, rows=1.0}",
		"      INDEXSCAN A via A_K(K) key:[$1 .. $1] sarg: (c0 = $1)  {cost: pages=0.2 rsi=5.0, rows=5.0}",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("golden plan drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenMergeJoin pins the merging-scans plan shape: both inputs
// sorted into temporary lists on the join column, then merged.
func TestExplainGoldenMergeJoin(t *testing.T) {
	db := abDB(t, systemr.Config{Joins: systemr.MergeOnly})
	got, err := db.Explain("SELECT A.V, B.W FROM A, B WHERE A.K = B.K")
	if err != nil {
		t.Fatal(err)
	}
	// The outer side rides A_K's order for free (an interesting order); only
	// B needs sorting into a temporary list.
	want := strings.Join([]string{
		"QUERY BLOCK (main)",
		"  PROJECT A.V, B.W  {cost: pages=5.0 rsi=88.0, rows=80.0}",
		"    MERGEJOIN on outer[0.0] = inner[1.0]  {cost: pages=5.0 rsi=88.0, rows=80.0}",
		"      INDEXSCAN A via A_K(K)  {cost: pages=2.0 rsi=40.0, rows=40.0}",
		"      SORT into temp list by [1.0]  {cost: pages=3.0 rsi=48.0, rows=16.0}",
		"        SEGSCAN B  {cost: pages=1.0 rsi=16.0, rows=16.0}",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("merge-join golden plan drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenInterestingOrder pins an interesting-order plan: the
// index scan already delivers ORDER BY K, so the optimizer emits no SORT
// node (Section 4's interesting orders make the ordered path win even though
// an unordered scan is cheaper before the sort is charged).
func TestExplainGoldenInterestingOrder(t *testing.T) {
	db := abDB(t, systemr.Config{})
	got, err := db.Explain("SELECT V FROM A WHERE K >= 3 ORDER BY K")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "SORT") {
		t.Fatalf("expected the index scan's order to satisfy ORDER BY without a SORT node:\n%s", got)
	}
	// K >= 3 matches K ∈ {3..7}, 5 rows each: the histogram counts exactly 25
	// of A's 40 rows (linear interpolation between the index boundary keys
	// used to guess 4/7 × 40 ≈ 22.9).
	want := strings.Join([]string{
		"QUERY BLOCK (main)",
		"  PROJECT A.V  {cost: pages=1.2 rsi=25.0, rows=25.0}",
		"    INDEXSCAN A via A_K(K) key:[3 .. +inf] sarg: (c0 >= 3)  {cost: pages=1.2 rsi=25.0, rows=25.0}",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("interesting-order golden plan drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
