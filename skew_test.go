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
	"systemr/internal/workload"
)

const skewSeed = 7

// noFeedback keeps plans stable while the test inspects them.
func skewEngine(disableHist bool) systemr.Config {
	return systemr.Config{DisableHistograms: disableHist, RecompileMissRatio: -1}
}

func TestSkewPlanFlip(t *testing.T) {
	hist, hot := workload.NewSkewDB(workload.SkewConfig{Seed: skewSeed, Engine: skewEngine(false)})
	uni, _ := workload.NewSkewDB(workload.SkewConfig{Seed: skewSeed, Engine: skewEngine(true)})

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
	uniPlan, err := uni.Explain(hotQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(uniPlan, "INDEXSCAN") {
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
	ures, err := uni.Query(hotQ)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(hres.Rows)) != hotRows || int64(len(ures.Rows)) != hotRows {
		t.Fatalf("rows: hist=%d uniform=%d want %d", len(hres.Rows), len(ures.Rows), hotRows)
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
	hist, hot := workload.NewSkewDB(workload.SkewConfig{Seed: skewSeed, Engine: skewEngine(false)})
	uni, _ := workload.NewSkewDB(workload.SkewConfig{Seed: skewSeed, Engine: skewEngine(true)})
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
		uq, err := uni.PlanSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := hist.PlanSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		uniSum += compile.MissFactor(uq.Root.Est().Rows, actual)
		histSum += compile.MissFactor(hq.Root.Est().Rows, actual)
		uniPlan, err := uni.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		histPlan, err := hist.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(uniPlan, "INDEXSCAN") != strings.Contains(histPlan, "INDEXSCAN") {
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
