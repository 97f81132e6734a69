package core

// Cost-model property tests: invariants every Table 2 costing must satisfy,
// checked across randomized schemas and predicate mixes.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// randomCostDB builds a table with a random number of rows, duplication
// levels, and indexes.
func randomCostDB(t testing.TB, rnd *rand.Rand) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	tab, err := cat.CreateTable("R", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindInt},
		{Name: "C", Type: value.KindFloat},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	rows := 50 + rnd.Intn(2000)
	dupA := 1 + rnd.Intn(50)
	for i := 0; i < rows; i++ {
		rss.Insert(tab, value.Row{
			value.NewInt(int64(i % dupA)),
			value.NewInt(int64(rnd.Intn(100))),
			value.NewFloat(rnd.Float64() * 1000),
		}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	if rnd.Intn(2) == 0 {
		cat.CreateIndex("R_A", "R", []string{"A"}, false, rnd.Intn(2) == 0, testutil.HeapRows(cat.Disk()))
	}
	if rnd.Intn(2) == 0 {
		cat.CreateIndex("R_B", "R", []string{"B"}, false, false, testutil.HeapRows(cat.Disk()))
	}
	cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))
	return cat
}

// TestCostInvariants: every enumerated path has non-negative finite cost;
// adding a sargable predicate never increases the RSI estimate; pushed join
// predicates never increase it either.
func TestCostInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		cat := randomCostDB(t, rnd)
		base := fmt.Sprintf("SELECT A FROM R WHERE B > %d", rnd.Intn(100))
		_, o := planFor(t, cat, Config{}, base)
		basePaths := o.genPaths(0, nil).all
		for _, p := range basePaths {
			c := p.node.Est().Cost
			if c.Pages < 0 || c.RSI < 0 || math.IsNaN(c.Pages) || math.IsInf(c.Pages, 0) {
				t.Fatalf("trial %d: bad cost %+v for %s", trial, c, p.desc)
			}
		}

		// Add one more sargable factor: RSI estimates must not grow.
		narrower := base + fmt.Sprintf(" AND A = %d", rnd.Intn(10))
		_, o2 := planFor(t, cat, Config{}, narrower)
		narrowPaths := o2.genPaths(0, nil).all
		for i := range basePaths {
			narrow, base := narrowPaths[i].node.Est().Cost.RSI, basePaths[i].node.Est().Cost.RSI
			if narrow > base+1e-9 {
				t.Fatalf("trial %d: extra predicate increased RSI estimate for %s: %v > %v",
					trial, basePaths[i].desc, narrow, base)
			}
		}

		// A pushed equality predicate must not increase any path's RSI.
		pushed := []pushedPred{{sarg: sem.SargDNF{{{
			Col: sem.ColumnID{Rel: 0, Col: 0}, Op: value.OpEq,
			Val: sem.Bound{Kind: sem.BoundParam, Param: o.nextParam},
		}}}, sel: 0.1}}
		o.nextParam++
		pushedPaths := o.genPaths(0, pushed).all
		for i := range basePaths {
			if pushedPaths[i].node.Est().Cost.RSI > basePaths[i].node.Est().Cost.RSI+1e-9 {
				t.Fatalf("trial %d: pushed predicate increased RSI for %s", trial, basePaths[i].desc)
			}
		}
	}
}

// TestUniquePathAlwaysCheapestForPointLookup: the 1+1+W unique-index cost
// must be the minimum among all paths for a unique equality.
func TestUniquePathAlwaysCheapestForPointLookup(t *testing.T) {
	cat := uniqueDB(t)
	_, o := planFor(t, cat, Config{}, "SELECT D FROM U WHERE A = 123")
	paths := o.genPaths(0, nil).all
	var uniqueCost, minCost float64
	minCost = math.Inf(1)
	for _, p := range paths {
		total := p.total(o.cfg.W)
		if total < minCost {
			minCost = total
		}
		if p.node.Label() != "" {
			if p.desc == "index U_A" {
				uniqueCost = total
			}
		}
	}
	if uniqueCost != minCost {
		t.Fatalf("unique probe %v is not the minimum %v", uniqueCost, minCost)
	}
}
