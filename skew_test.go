package systemr_test

// The acceptance test for histogram statistics: on a zipfian-skewed relation
// the uniform Table 1 model prices a hot-key probe like any other key and
// picks the index; the histogram knows the hot key covers a double-digit
// share of the relation, where an index scan would fetch most pages anyway
// (unclustered, one RSI call per row), so the plan flips to a segment scan.
// Cold keys must keep the index under both models.

import (
	"fmt"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/workload"
)

const skewSeed = 7

// uniformModel is db's optimizer configuration with histograms off: every
// selectivity comes from Table 1's defaults and the index ICARDs.
func uniformModel(db *systemr.DB) core.Config {
	cfg := db.OptimizerConfig()
	cfg.DisableHistograms = true
	return cfg
}

func TestSkewPlanFlip(t *testing.T) {
	hist, hot := openSkewDB(workload.SkewConfig{Seed: skewSeed})

	hotQ := fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY = %d", hot)

	// The hot key's true cardinality, for the estimate assertion below.
	res, err := hist.Query(fmt.Sprintf("SELECT COUNT(*) FROM EVENTS WHERE KEY = %d", hot))
	if err != nil {
		t.Fatal(err)
	}
	hotRows := res.Rows[0][0].(int64)
	if hotRows < 10000 { // zipf s=1.3 over 1000 keys: the hot key is >10% of 100k rows
		t.Fatalf("workload not skewed enough: hot key %d has %d rows", hot, hotRows)
	}

	// Uniform model: ~100k/1000 ≈ 100 estimated rows — the index looks cheap.
	uq, _ := planQuery(t, hist, hotQ, uniformModel(hist))
	if uniPlan := uq.Explain(); !strings.Contains(uniPlan, "INDEXSCAN") {
		t.Fatalf("uniform model should probe the index for the hot key:\n%s", uniPlan)
	}

	// Histogram: the hot key sits in its own singleton bucket, so the
	// estimate is exact and the plan flips to the segment scan.
	histPlan, err := hist.Explain(hotQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(histPlan, "SEGSCAN") || strings.Contains(histPlan, "INDEXSCAN") {
		t.Fatalf("histogram model should flip the hot key to a segment scan:\n%s", histPlan)
	}
	if want := fmt.Sprintf("rows=%d.0", hotRows); !strings.Contains(histPlan, want) {
		t.Fatalf("heavy-hitter isolation should estimate the hot key exactly (%s):\n%s", want, histPlan)
	}

	// Both plans return the same (correct) result.
	hres, err := hist.Query(hotQ)
	if err != nil {
		t.Fatal(err)
	}
	urows, _ := runPlanned(t, hist, hotQ, uniformModel(hist))
	if int64(len(hres.Rows)) != hotRows || int64(len(urows)) != hotRows {
		t.Fatalf("rows: hist=%d uniform=%d want %d", len(hres.Rows), len(urows), hotRows)
	}

	// A cold-tail key stays on the index under the histogram model too — the
	// flip is driven by the data, not a blanket preference.
	coldPlan, err := hist.Explain("SELECT VAL FROM EVENTS WHERE KEY = 900")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldPlan, "INDEXSCAN") {
		t.Fatalf("cold key should keep the index scan:\n%s", coldPlan)
	}
}

// TestHistogramsFlipPlans plans a mixed predicate set (hot/mid/cold
// equality, ranges, BETWEEN, IN, an unindexed column) under both models:
// histograms must cut the mean estimation q-error and flip exactly four of
// the eight access-path choices.
func TestHistogramsFlipPlans(t *testing.T) {
	hist, hot := openSkewDB(workload.SkewConfig{Seed: skewSeed})
	queries := []string{
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY = %d", hot),
		"SELECT VAL FROM EVENTS WHERE KEY = 10",
		"SELECT VAL FROM EVENTS WHERE KEY = 900",
		"SELECT VAL FROM EVENTS WHERE KEY < 5",
		"SELECT VAL FROM EVENTS WHERE KEY > 500",
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY BETWEEN %d AND %d", hot, hot+2),
		fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY IN (%d, 900)", hot),
		"SELECT ID FROM EVENTS WHERE VAL < 100",
	}
	var uniSum, histSum float64
	flips := 0
	for _, q := range queries {
		res, err := hist.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(len(res.Rows))
		uq, _ := planQuery(t, hist, q, uniformModel(hist))
		hq, err := hist.PlanSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		uniSum += compile.MissFactor(uq.Root.Est().Rows, actual)
		histSum += compile.MissFactor(hq.Root.Est().Rows, actual)
		if strings.Contains(uq.Explain(), "INDEXSCAN") != strings.Contains(hq.Explain(), "INDEXSCAN") {
			flips++
		}
	}
	if histSum >= uniSum {
		t.Errorf("histograms did not reduce the mean q-error: hist %.2f vs uniform %.2f",
			histSum/float64(len(queries)), uniSum/float64(len(queries)))
	}
	if flips != 4 {
		t.Errorf("histograms flipped %d of %d plans, want 4", flips, len(queries))
	}
}

// TestSkewLiftedKeysKeepPlans: TestSkewPlanFlip's hot and cold keys, run as
// ad hoc texts that lift to the same text, fall in different selectivity
// classes, so they compile once each and keep their own plans: the segment
// scan for the hot key, the index for the cold one.
func TestSkewLiftedKeysKeepPlans(t *testing.T) {
	db, hot := openSkewDB(workload.SkewConfig{Seed: skewSeed})
	hotQ := fmt.Sprintf("SELECT VAL FROM EVENTS WHERE KEY = %d", hot)
	const coldQ = "SELECT VAL FROM EVENTS WHERE KEY = 900"
	before := db.PlanCacheStats()
	for _, q := range []string{hotQ, coldQ, hotQ, coldQ} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.PlanCacheStats(); s.Compilations-before.Compilations != 2 || s.Hits-before.Hits != 2 {
		t.Fatalf("hot and cold keys: %d compilations and %d hits, want 2 and 2",
			s.Compilations-before.Compilations, s.Hits-before.Hits)
	}
	for q, scan := range map[string]string{hotQ: "SEGSCAN", coldQ: "INDEXSCAN"} {
		p, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p, scan) || !strings.Contains(p, "plan cache: hit") {
			t.Fatalf("%s should be served its cached %s plan:\n%s", q, scan, p)
		}
	}
}
