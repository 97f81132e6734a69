package core

import (
	"fmt"
	"math"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// testDB builds a catalog with one relation R:
//
//	R(A INTEGER indexed [values 0..49, uniform ×4],
//	  B INTEGER no index [values 0..9],
//	  C VARCHAR indexed [20 distinct],
//	  D FLOAT no index,
//	  K INTEGER no index [the single value 7])
//
// 200 rows, statistics updated. A second relation S(A indexed 0..9, E no
// index) with 50 rows supports join selectivities.
func testDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	return testDBWith(t, 200, true)
}

// testDBWith is testDB with rows rows in R (and rows/4 in S), analyzed or
// not.
func testDBWith(t testing.TB, rows int, analyze bool) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	r, err := cat.CreateTable("R", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindInt},
		{Name: "C", Type: value.KindString},
		{Name: "D", Type: value.KindFloat},
		{Name: "K", Type: value.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, err := rss.Insert(r, value.Row{
			value.NewInt(int64(i % 50)),
			value.NewInt(int64(i % 10)),
			value.NewString(fmt.Sprintf("C%02d", i%20)),
			value.NewFloat(float64(i)),
			value.NewInt(7),
		}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("R_A", "R", []string{"A"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("R_C", "R", []string{"C"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "E", Type: value.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows/4; i++ {
		if _, err := rss.Insert(s, value.Row{value.NewInt(int64(i % 10)), value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, cat.Disk()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("S_A", "S", []string{"A"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	if analyze {
		cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))
	}
	return cat
}

// factorSel analyzes "SELECT A FROM R[, S] WHERE <pred>" and returns the
// selectivity the optimizer assigns to the (single) boolean factor.
// Histograms are disabled so these tests pin the paper's Table 1 factors
// exactly; histogram-based estimation has its own tests in histsel_test.go.
func factorSel(t testing.TB, cat *catalog.Catalog, from, pred string) float64 {
	t.Helper()
	return factorSelCfg(t, cat, from, pred, Config{DisableHistograms: true})
}

// factorSelCfg is factorSel under an explicit optimizer configuration.
func factorSelCfg(t testing.TB, cat *catalog.Catalog, from, pred string, cfg Config) float64 {
	t.Helper()
	return plannedWhere(t, cat, from, pred, cfg).factors[0].sel
}

// plannedWhere optimizes "SELECT R.A FROM <from> WHERE <pred>" and returns
// the optimizer, whose factors hold the selectivities planning assigned.
func plannedWhere(t testing.TB, cat *catalog.Catalog, from, pred string, cfg Config) *Optimizer {
	t.Helper()
	st, err := sql.Parse("SELECT R.A FROM " + from + " WHERE " + pred)
	if err != nil {
		t.Fatalf("parse %q: %v", pred, err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("analyze %q: %v", pred, err)
	}
	o := New(cat, cfg)
	// Planning initializes factor selectivities (including subquery stats).
	if _, err := o.Optimize(blk); err != nil {
		t.Fatalf("optimize %q: %v", pred, err)
	}
	if len(o.factors) == 0 {
		t.Fatalf("no factors for %q", pred)
	}
	return o
}

func approx(t testing.TB, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s: selectivity %v, want %v", what, got, want)
	}
}

// TestTable1EqualPredicates: "F = 1/ICARD(column index) if there is an index
// on column; 1/10 otherwise."
func TestTable1EqualPredicates(t *testing.T) {
	cat := testDB(t)
	approx(t, factorSel(t, cat, "R", "A = 7"), 1.0/50, "eq with index")
	approx(t, factorSel(t, cat, "R", "B = 3"), 1.0/10, "eq without index")
	approx(t, factorSel(t, cat, "R", "7 = A"), 1.0/50, "eq flipped operands")
	approx(t, factorSel(t, cat, "R", "C = 'C05'"), 1.0/20, "string eq with index")
}

// TestTable1ColumnEqColumn: "F = 1/MAX(ICARD(c1), ICARD(c2)) with both
// indexes; 1/ICARD(ci) with one; 1/10 otherwise."
func TestTable1ColumnEqColumn(t *testing.T) {
	cat := testDB(t)
	approx(t, factorSel(t, cat, "R, S", "R.A = S.A"), 1.0/50, "both indexed: 1/max(50,10)")
	approx(t, factorSel(t, cat, "R, S", "R.B = S.A"), 1.0/10, "one indexed (S.A, icard 10)")
	approx(t, factorSel(t, cat, "R, S", "R.B = S.E"), 1.0/10, "neither indexed")
}

// TestTable1RangePredicates: linear interpolation for arithmetic columns with
// known values; 1/3 otherwise.
func TestTable1RangePredicates(t *testing.T) {
	cat := testDB(t)
	// A spans 0..49: A > 39 → (49-39)/(49-0) = 10/49.
	approx(t, factorSel(t, cat, "R", "A > 39"), 10.0/49, "interpolated >")
	approx(t, factorSel(t, cat, "R", "A < 39"), 39.0/49, "interpolated <")
	// No statistics for B (no index) → default 1/3.
	approx(t, factorSel(t, cat, "R", "B > 3"), 1.0/3, "range without stats")
	// Non-arithmetic column → 1/3 even with an index.
	approx(t, factorSel(t, cat, "R", "C > 'C10'"), 1.0/3, "string range")
	// Value unknown at access path selection (subquery operand) → 1/3.
	approx(t, factorSel(t, cat, "R", "A > (SELECT MIN(E) FROM S)"), 1.0/3, "unknown value")
}

// TestTable1Between: ratio of the BETWEEN range to the key range; 1/4
// otherwise.
func TestTable1Between(t *testing.T) {
	cat := testDB(t)
	approx(t, factorSel(t, cat, "R", "A BETWEEN 10 AND 19"), 9.0/49, "interpolated between")
	approx(t, factorSel(t, cat, "R", "B BETWEEN 1 AND 3"), 1.0/4, "between without stats")
	approx(t, factorSel(t, cat, "R", "C BETWEEN 'C01' AND 'C05'"), 1.0/4, "string between")
}

// TestTable1InList: F = n × F(eq), capped at 1/2.
func TestTable1InList(t *testing.T) {
	cat := testDB(t)
	approx(t, factorSel(t, cat, "R", "A IN (1, 2, 3)"), 3.0/50, "in list with index")
	approx(t, factorSel(t, cat, "R", "B IN (1, 2, 3)"), 3.0/10, "in list without index")
	// 40 × 1/50 = 0.8 → capped at 1/2.
	in40 := "A IN (0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39)"
	approx(t, factorSel(t, cat, "R", in40), 1.0/2, "in list capped at 1/2")
}

// TestTable1InSubquery: F = QCARD(sub) / product of subquery FROM
// cardinalities.
func TestTable1InSubquery(t *testing.T) {
	cat := testDB(t)
	// Subquery: SELECT A FROM S WHERE E = 5 → QCARD est = 50 × 1/10 = 5;
	// relProd = 50 → F = 0.1.
	got := factorSel(t, cat, "R", "A IN (SELECT A FROM S WHERE E = 5)")
	approx(t, got, 0.1, "in subquery")
	// Unrestricted subquery → F = 1.
	got = factorSel(t, cat, "R", "A IN (SELECT A FROM S)")
	approx(t, got, 1.0, "unrestricted in subquery")
}

// TestTable1Combinators: OR, AND, NOT.
func TestTable1Combinators(t *testing.T) {
	cat := testDB(t)
	f1, f2 := 1.0/50, 1.0/10
	approx(t, factorSel(t, cat, "R", "(A = 1 OR B = 2)"), f1+f2-f1*f2, "or")
	// AND inside one factor only occurs under OR or NOT; use NOT(x OR y)
	// which push-down turns into two factors — instead check AND via nested
	// parens kept as one factor by OR wrapping.
	approx(t, factorSel(t, cat, "R", "(A = 1 AND B = 2) OR C = 'C00'"),
		func() float64 {
			and := f1 * f2
			c := 1.0 / 20
			return and + c - and*c
		}(), "and under or")
	approx(t, factorSel(t, cat, "R", "NOT B = 2"), 1-f2, "not eq")
	approx(t, factorSel(t, cat, "R", "A <> 3"), 1-f1, "ne")
}

// unitShapes are the predicate shapes checkUnitRange plans under every
// statistics fixture. K holds a single value, so each item
// of "K NOT IN (7, 8)" estimates F = 1 by histogram and the raw NOT IN is
// 1 - 2 = -1.
var unitShapes = []string{
	"A = 1", "A = 7", "A <> 7", "B <> 5", "A = B",
	"A > 39", "A > 1000", "A < -5", "A < 10", "C > 'C10'", "D > 100",
	"A BETWEEN 10 AND 19", "A BETWEEN 40 AND 900", "A NOT BETWEEN 10 AND 20",
	"A IN (1,2,3)", "A IN (1,1,1,1)", "A NOT IN (1,2)", "A NOT IN (1,2,3)",
	"K NOT IN (7, 8)",
	"NOT A = 1", "NOT (A = 1 OR B = 2)", "(A = 1 OR A = 2) AND (B = 1 OR B = 2)",
	"A IN (SELECT A FROM S WHERE E > 3)", "A NOT IN (SELECT A FROM S WHERE E > 3)",
	"A + B = 3", "A * 2 > B", "1 = 1", "1 = 2",
}

// unitComplements pairs negated forms with their positive forms: each
// negation's F must be 1 - F(positive form). (NOT IN is left out: its
// positive form is capped at 1/2, its negation is not.)
var unitComplements = [][2]string{
	{"A <> 7", "A = 7"},
	{"A NOT BETWEEN 10 AND 19", "A BETWEEN 10 AND 19"},
	{"A NOT IN (SELECT A FROM S WHERE E > 3)", "A IN (SELECT A FROM S WHERE E > 3)"},
}

// statsFixture is testDB under some state of its statistics. Each must
// degrade to the Table 1 defaults or a floored estimate — never to NaN, Inf,
// or a value outside [0, 1].
type statsFixture struct {
	name  string
	build func(t *testing.T) *catalog.Catalog
}

// degenerateFixtures are testDB with relation R's statistics corrupted.
var degenerateFixtures = []statsFixture{
	{"inverted low/high keys", mutatedR(func(r *catalog.Table) {
		for _, ix := range r.Indexes {
			ix.Stats.Low, ix.Stats.High = ix.Stats.High, ix.Stats.Low
		}
	})},
	{"NaN low/high keys", mutatedR(func(r *catalog.Table) {
		for _, ix := range r.Indexes {
			ix.Stats.Low = value.NewFloat(math.NaN())
			ix.Stats.High = value.NewFloat(math.NaN())
		}
	})},
	{"NaN low key", mutatedR(func(r *catalog.Table) {
		for _, ix := range r.Indexes {
			ix.Stats.Low = value.NewFloat(math.NaN())
		}
	})},
	{"zero distinct counts", mutatedR(func(r *catalog.Table) {
		for _, ix := range r.Indexes {
			ix.Stats.ICard, ix.Stats.ICardLead = 0, 0
		}
		for i := range r.ColStats {
			r.ColStats[i].NDistinct = 0
		}
	})},
	{"empty histograms", mutatedR(func(r *catalog.Table) {
		for i := range r.ColStats {
			if r.ColStats[i].Hist != nil {
				r.ColStats[i].Hist.NRows = 0
			}
		}
	})},
}

// mutatedR builds testDB and corrupts relation R's statistics with mutate.
func mutatedR(mutate func(r *catalog.Table)) func(t *testing.T) *catalog.Catalog {
	return func(t *testing.T) *catalog.Catalog {
		cat := testDB(t)
		r, ok := cat.Table("R")
		if !ok {
			t.Fatal("no relation R")
		}
		mutate(r)
		return cat
	}
}

// TestSelectivityAlwaysInUnitRange is the property the rest of the optimizer
// depends on, checked under healthy and missing statistics.
func TestSelectivityAlwaysInUnitRange(t *testing.T) {
	checkUnitRange(t, []statsFixture{
		{"healthy", func(t *testing.T) *catalog.Catalog { return testDB(t) }},
		{"unanalyzed", func(t *testing.T) *catalog.Catalog { return testDBWith(t, 200, false) }},
	})
}

// TestEmptyRelationSelectivities: an analyzed empty relation has ICARD = 0 on
// every index; 1/ICARD must not produce Inf/NaN (EffICardLead floors at 1).
func TestEmptyRelationSelectivities(t *testing.T) {
	checkUnitRange(t, []statsFixture{
		{"analyzed empty", func(t *testing.T) *catalog.Catalog { return testDBWith(t, 0, true) }},
	})
}

// TestDegenerateStatsSelectivities: corrupted, empty, or non-arithmetic
// statistics keep the unit-range property.
func TestDegenerateStatsSelectivities(t *testing.T) {
	checkUnitRange(t, degenerateFixtures)
}

// checkUnitRange plans every shape under every fixture, with histograms on
// and off: each boolean factor's F and each access path's fractions are
// finite and in [0, 1], and each negation is the complement of its positive
// form.
func checkUnitRange(t *testing.T, fixtures []statsFixture) {
	t.Helper()
	inUnit := func(f float64) bool { return f >= 0 && f <= 1 } // false for NaN
	for _, fx := range fixtures {
		cat := fx.build(t)
		for _, cfg := range []Config{{}, {DisableHistograms: true}} {
			where := fmt.Sprintf("%s (DisableHistograms=%v)", fx.name, cfg.DisableHistograms)
			for _, p := range unitShapes {
				o := plannedWhere(t, cat, "R", p, cfg)
				for _, fi := range o.factors {
					if !inUnit(fi.sel) {
						t.Fatalf("%s: selectivity of %q out of range: %v", where, p, fi.sel)
					}
				}
				checkPathFractions(t, o, where+": "+p)
			}
			for _, c := range unitComplements {
				neg := factorSelCfg(t, cat, "R", c[0], cfg)
				pos := factorSelCfg(t, cat, "R", c[1], cfg)
				approx(t, neg, 1-pos, where+": "+c[0]+" against "+c[1])
			}
		}
	}
}

// checkPathFractions fails unless every access path on relation 0 keeps its
// fractions in [0, 1]: RSICARD/NCARD and rows/NCARD, and an index path's
// matching F(preds). F is read off the path's cost: indexCost grows with F,
// so F in [0, 1] bounds the pages between 0 and the same index at F = 1.
func checkPathFractions(t *testing.T, o *Optimizer, where string) {
	t.Helper()
	acc := o.genPaths(0, nil)
	ncard := o.blk.Rels[0].Table.Stats.EffNCard()
	for _, p := range acc.all {
		est := p.node.Est()
		for _, f := range []float64{est.Cost.RSI, est.Rows} {
			if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > ncard {
				t.Fatalf("%s: %s: cardinality %v outside [0, NCARD=%v]", where, p.desc, f, ncard)
			}
		}
		ix, ok := p.node.(*plan.IndexScan)
		if !ok {
			continue
		}
		full := o.indexCost(ix.Index, false, 1, acc.rsicard).Pages
		if pg := est.Cost.Pages; math.IsNaN(pg) || pg < 0 || pg > full {
			t.Fatalf("%s: %s: %v pages outside [0, %v], so F(preds) is outside [0, 1]", where, p.desc, pg, full)
		}
	}
}

// TestConstantFolding: constant comparisons fold to exactly 0 or 1.
func TestConstantFolding(t *testing.T) {
	cat := testDB(t)
	approx(t, factorSel(t, cat, "R", "1 = 1"), 1, "true constant")
	approx(t, factorSel(t, cat, "R", "1 = 2"), 0, "false constant")
}

// TestDefaultStatisticsSelectivities: without UPDATE STATISTICS the paper's
// "arbitrary factor" defaults apply even when indexes exist.
func TestDefaultStatisticsSelectivities(t *testing.T) {
	cat := catalog.New(storage.NewDisk())
	r, _ := cat.CreateTable("R", []catalog.Column{{Name: "A", Type: value.KindInt}}, "")
	for i := 0; i < 100; i++ {
		rss.Insert(r, value.Row{value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	cat.CreateIndex("R_A", "R", []string{"A"}, false, false, testutil.HeapRows(cat.Disk()))
	// No UpdateStatistics: ICARD defaults to DefaultICard.
	st, _ := sql.Parse("SELECT A FROM R WHERE A = 5")
	blk, err := sem.Analyze(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	o := New(cat, Config{})
	if _, err := o.Optimize(blk); err != nil {
		t.Fatal(err)
	}
	approx(t, o.factors[0].sel, 1.0/catalog.DefaultICard, "default icard eq")
}
