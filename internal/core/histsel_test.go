package core

// Histogram-based selectivity tests, plus the regression tests for the PR's
// estimation bugfixes: analyzed-index preference, out-of-range interpolation
// floors, IN-list negation from the uncapped sum, and degenerate-statistics
// hardening. The Table 1 defaults themselves are pinned (with histograms
// disabled) in selectivity_test.go.

import (
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// histSel is factorSel with histograms enabled (the default configuration).
func histSel(t testing.TB, cat *catalog.Catalog, from, pred string) float64 {
	t.Helper()
	return factorSelCfg(t, cat, from, pred, Config{})
}

// TestHistogramEqSelectivity: with a histogram, equality estimates come from
// the observed value counts, not from 1/ICARD or the 1/10 default.
func TestHistogramEqSelectivity(t *testing.T) {
	cat := testDB(t)
	// B has no index — Table 1 would say 1/10; the histogram knows B holds
	// 10 keys × 20 rows, which happens to agree exactly.
	approx(t, histSel(t, cat, "R", "B = 3"), 20.0/200, "unindexed eq via histogram")
	// S.E has no index either, but it is unique: the histogram estimates
	// 1/50 where the Table 1 default would claim 1/10.
	approx(t, histSel(t, cat, "R, S", "S.E = 5"), 1.0/50, "unique unindexed eq")
	// An unknown comparison value (subquery result) falls back to
	// 1/NDistinct from the column statistics.
	approx(t, histSel(t, cat, "R", "A = (SELECT MIN(E) FROM S)"), 1.0/50, "unknown value eq")
}

// TestHistogramSkewedEqSelectivity: the whole point of histograms — a heavy
// hitter estimates its real share, not the uniform average.
func TestHistogramSkewedEqSelectivity(t *testing.T) {
	// The factorSel helpers select from a relation named R with column A, so
	// the skewed table reuses those names: 100 rows of A=1, plus 100 unique
	// keys 1000..1099 — 101 distinct keys, but half the table is one of them.
	cat := catalog.New(storage.NewDisk())
	z, err := cat.CreateTable("R", []catalog.Column{{Name: "A", Type: value.KindInt}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rss.Insert(z, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	for i := 0; i < 100; i++ {
		rss.Insert(z, value.Row{value.NewInt(int64(1000 + i))}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	if _, err := cat.CreateIndex("R_A", "R", []string{"A"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))

	hot := histSel(t, cat, "R", "A = 1")
	approx(t, hot, 0.5, "heavy hitter eq (isolated bucket)")
	cold := histSel(t, cat, "R", "A = 1042")
	if cold <= 0 || cold > 0.05 {
		t.Fatalf("cold key selectivity %v, want a per-key average near 1/200", cold)
	}
	// The uniform model cannot tell them apart: both estimate 1/ICARD.
	uni := factorSel(t, cat, "R", "A = 1")
	approx(t, uni, 1.0/101, "uniform model flattens the heavy hitter")
}

// TestHistogramRangeAndBetween: ranges and BETWEEN use bucket-fraction
// interpolation instead of the low/high-key linear model.
func TestHistogramRangeAndBetween(t *testing.T) {
	cat := testDB(t)
	// A holds 0..49 × 4 rows: A > 39 selects keys 40..49, exactly 40 of 200
	// rows. Linear interpolation would say (49-39)/49 ≈ 0.204.
	approx(t, histSel(t, cat, "R", "A > 39"), 40.0/200, "range via histogram")
	approx(t, histSel(t, cat, "R", "A <= 9"), 40.0/200, "<= via histogram")
	approx(t, histSel(t, cat, "R", "A BETWEEN 10 AND 19"), 40.0/200, "between via histogram")
	// Strings get bucket fractions too — no linear model exists for them, so
	// the old estimate was a flat 1/3. C holds C00..C19 × 10 rows; C > 'C10'
	// selects the 9 keys above, 90 rows, within intra-bucket tolerance.
	got := histSel(t, cat, "R", "C > 'C10'")
	if got < 0.4 || got > 0.5 {
		t.Fatalf("string range via histogram: %v, want ≈ 90/200", got)
	}
}

// TestOutOfRangeFloorHistogram: constants outside the analyzed key range —
// the normal state of affairs once statistics go stale — floor at one key's
// worth of rows instead of estimating QCARD 0.
func TestOutOfRangeFloorHistogram(t *testing.T) {
	cat := testDB(t)
	floor := 1.0 / 50 // A has 50 observed distinct keys
	approx(t, histSel(t, cat, "R", "A = 1000"), floor, "point query past high key")
	approx(t, histSel(t, cat, "R", "A = -3"), floor, "point query below low key")
	approx(t, histSel(t, cat, "R", "A > 1000"), floor, "range past high key")
	approx(t, histSel(t, cat, "R", "A < -5"), floor, "range below low key")
	approx(t, histSel(t, cat, "R", "A BETWEEN 1000 AND 2000"), floor, "between past high key")
}

// TestOutOfRangeFloorInterpolation is the same regression on the paper's
// index-interpolation path (histograms disabled): before the fix these all
// clamped to exactly 0, and a plan built on QCARD 0 believes every downstream
// operator is free.
func TestOutOfRangeFloorInterpolation(t *testing.T) {
	cat := testDB(t)
	floor := 1.0 / 50 // 1/EffICardLead of the R_A index
	approx(t, factorSel(t, cat, "R", "A > 1000"), floor, "interpolated > past high key")
	approx(t, factorSel(t, cat, "R", "A < -5"), floor, "interpolated < below low key")
	approx(t, factorSel(t, cat, "R", "A BETWEEN 1000 AND 2000"), floor, "interpolated between out of range")
}

// TestOutOfRangeAfterInsert: the integration shape of the stale-stats bug —
// analyze, then insert a key past the analyzed range, then query it. The
// estimate must stay positive without re-analyzing.
func TestOutOfRangeAfterInsert(t *testing.T) {
	cat := testDB(t)
	r, _ := cat.Table("R")
	if _, err := rss.Insert(r, value.Row{
		value.NewInt(500), value.NewInt(3), value.NewString("C99"), value.NewFloat(0), value.NewInt(7),
	}, storage.FrozenXID, storage.NoPrevTID, cat.Disk()); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {DisableHistograms: true}} {
		got := factorSelCfg(t, cat, "R", "A = 500", cfg)
		if got <= 0 {
			t.Fatalf("stale-stats point query estimates zero (DisableHistograms=%v)", cfg.DisableHistograms)
		}
	}
}

// TestColStatsPrefersAnalyzedIndex: with two indexes on the same leading
// column, estimation must use the analyzed one — before the fix, the first
// match won, so a later-created (unanalyzed) index could shadow real
// statistics with the defaults.
func TestColStatsPrefersAnalyzedIndex(t *testing.T) {
	cat := testDB(t)
	// Created after UpdateStatistics, so R_A2 has no statistics.
	if _, err := cat.CreateIndex("R_A2", "R", []string{"A"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	r, _ := cat.Table("R")
	// Put the unanalyzed index ahead of the analyzed one in catalog order —
	// the shape that exposed the first-match bug.
	var ia, ia2 = -1, -1
	for i, ix := range r.Indexes {
		switch ix.Name {
		case "R_A":
			ia = i
		case "R_A2":
			ia2 = i
		}
	}
	if ia < 0 || ia2 < 0 {
		t.Fatalf("missing A indexes: %d %d", ia, ia2)
	}
	r.Indexes[ia], r.Indexes[ia2] = r.Indexes[ia2], r.Indexes[ia]

	// Histograms disabled so the estimate must come through the index path.
	got := factorSel(t, cat, "R", "A = 7")
	approx(t, got, 1.0/50, "eq must use the analyzed index's ICARD, not DefaultICard")
	got = factorSel(t, cat, "R", "A > 39")
	approx(t, got, 10.0/49, "interpolation must use the analyzed index's low/high keys")
}

// TestInListNegationUncapped: the 1/2 cap encodes "an IN list rarely matches
// more than half the table" — it applies to the positive form only. NOT IN
// over a wide list must compute 1 - (uncapped sum), not 1 - (capped sum),
// which floored every wide NOT IN at 1/2.
func TestInListNegationUncapped(t *testing.T) {
	cat := testDB(t)
	// B holds 0..9 at 1/10 each (by histogram and by default alike). Nine
	// items sum to 0.9: positive form capped to 1/2, negation from 0.9.
	in9 := "(0,1,2,3,4,5,6,7,8)"
	for _, cfg := range []Config{{}, {DisableHistograms: true}} {
		pos := factorSelCfg(t, cat, "R", "B IN "+in9, cfg)
		approx(t, pos, 1.0/2, "wide IN capped at 1/2")
		neg := factorSelCfg(t, cat, "R", "B NOT IN "+in9, cfg)
		approx(t, neg, 1-0.9, "wide NOT IN from the uncapped sum")
	}
	// Narrow lists are unaffected in both directions.
	approx(t, factorSel(t, cat, "R", "A IN (1, 2, 3)"), 3.0/50, "narrow IN")
	approx(t, factorSel(t, cat, "R", "A NOT IN (1, 2, 3)"), 1-3.0/50, "narrow NOT IN")
	// With a histogram, each item gets its own estimate; out-of-range items
	// floor at one key's rows instead of adding zero.
	approx(t, histSel(t, cat, "R", "A IN (1, 2, 1000)"), 3.0/50, "per-item histogram IN with stale item")
}
