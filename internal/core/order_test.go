package core

import (
	"math"
	"testing"

	"systemr/internal/plan"
	"systemr/internal/sem"
)

func col(rel, c int) sem.ColumnID { return sem.ColumnID{Rel: rel, Col: c} }

func TestOrderClassesUnionFind(t *testing.T) {
	oc := newOrderClasses()
	a, b, c, d := col(0, 1), col(1, 0), col(2, 3), col(3, 3)
	oc.union(a, b)
	oc.union(b, c)
	if !oc.same(a, c) {
		t.Fatal("transitive union")
	}
	if oc.same(a, d) {
		t.Fatal("d is separate")
	}
	oc.union(d, a)
	if !oc.same(d, c) {
		t.Fatal("late union merges classes")
	}
	// Singletons are their own class.
	e := col(9, 9)
	if oc.find(e) != e {
		t.Fatal("singleton root")
	}
}

func TestOrderSatisfiesAndKey(t *testing.T) {
	a := orderEl{class: col(0, 1)}
	b := orderEl{class: col(1, 2)}
	bd := orderEl{class: col(1, 2), desc: true}
	long := order{a, b}
	if !long.satisfies(order{a}) {
		t.Fatal("prefix satisfies")
	}
	if !long.satisfies(long) {
		t.Fatal("identity satisfies")
	}
	if long.satisfies(order{b}) {
		t.Fatal("wrong leading element")
	}
	if long.satisfies(order{a, bd}) {
		t.Fatal("direction mismatch must not satisfy")
	}
	if (order{a}).satisfies(long) {
		t.Fatal("shorter cannot satisfy longer")
	}
	if order(nil).key() != "" {
		t.Fatal("empty order key")
	}
	if long.key() == (order{a, bd}).key() {
		t.Fatal("direction must distinguish keys")
	}
	if !order(nil).satisfies(nil) {
		t.Fatal("empty satisfies empty")
	}
}

func TestRequiredOrderCombinesGroupAndOrderBy(t *testing.T) {
	cat := joinDB(t, 1, 50)
	// GROUP BY V ORDER BY V: one sort serves both; K added after order keys
	// when grouping on both.
	_, o := planFor(t, cat, Config{}, "SELECT V, COUNT(*) FROM T1 GROUP BY V ORDER BY V")
	req := o.requiredOrder()
	if len(req) != 1 || req[0].desc {
		t.Fatalf("required order: %+v", req)
	}
	_, o = planFor(t, cat, Config{}, "SELECT K, V, COUNT(*) FROM T1 GROUP BY K, V ORDER BY V")
	req = o.requiredOrder()
	if len(req) != 2 || req[0].class != o.classes.find(col(0, 1)) {
		t.Fatalf("ORDER BY key must lead: %+v", req)
	}
}

func TestInterestingOrdersIncludeJoinColumns(t *testing.T) {
	cat := joinDB(t, 3, 50)
	_, o := planFor(t, cat, Config{},
		"SELECT T1.V FROM T1, T2, T3 WHERE T1.K = T2.K AND T2.K = T3.K ORDER BY T1.V")
	// Every distinct join column is interesting (T1.K, T2.K, T3.K; T2.K
	// appears in both predicates), plus the ORDER BY column.
	if len(o.interest) != 4 {
		t.Fatalf("interesting orders: %d (%v)", len(o.interest), o.interest)
	}
	// Once all join predicates are applied (the full subset), the columns
	// share one equivalence class.
	full := sem.RelSet(0).Set(0).Set(1).Set(2)
	oc := o.classesFor(full)
	if !oc.same(col(0, 0), col(2, 0)) {
		t.Fatal("K columns must share one class in the full subset")
	}
	// But in a subset without the equating predicate they do not.
	partial := sem.RelSet(0).Set(0).Set(2)
	if o.classesFor(partial).same(col(0, 0), col(2, 0)) {
		t.Fatal("T1.K and T3.K must not be equated before the chain is joined")
	}
}

func TestSortKeysForPicksRepresentativeInSet(t *testing.T) {
	cat := joinDB(t, 2, 50)
	_, o := planFor(t, cat, Config{}, "SELECT T1.V FROM T1, T2 WHERE T1.K = T2.K")
	cl := o.classes.find(col(0, 0))
	var onlyT2 sem.RelSet
	onlyT2 = onlyT2.Set(1)
	keys := o.sortKeysFor(order{{class: cl}}, onlyT2)
	if len(keys) != 1 || keys[0].Col.Rel != 1 {
		t.Fatalf("representative must come from T2: %+v", keys)
	}
}

func TestSortCostProperties(t *testing.T) {
	o := New(nil, Config{BufferPages: 8})
	sortCost := func(card, width float64) plan.Cost { return o.sortEst(plan.Estimate{}, card, width).Cost }
	small := sortCost(100, 32)
	big := sortCost(100000, 32)
	if small.Pages >= big.Pages || small.RSI >= big.RSI {
		t.Fatal("sort cost must grow with cardinality")
	}
	wide := sortCost(100, 512)
	if wide.Pages < small.Pages {
		t.Fatal("wider rows need more pages")
	}
	// RSI = 2 per tuple (write + read).
	if small.RSI != 200 {
		t.Fatalf("sort RSI: %v", small.RSI)
	}
	// Multi-pass: huge inputs with a tiny buffer cost more than 2 passes'
	// worth of pages.
	tp := tempPages(100000, 32)
	if big.Pages <= 2*tp {
		t.Fatalf("big sort should be multi-pass: pages=%v tp=%v", big.Pages, tp)
	}
	if tempPages(0, 32) != 1 {
		t.Fatal("temp pages floor at 1")
	}
}

func TestCardOfAndWidths(t *testing.T) {
	cat := joinDB(t, 2, 100)
	_, o := planFor(t, cat, Config{}, "SELECT T1.V FROM T1, T2 WHERE T1.K = T2.K AND T1.V = 5")
	var s1, s12 sem.RelSet
	s1 = s1.Set(0)
	s12 = s1.Set(1)
	c1 := o.cardOf(s1)
	c12 := o.cardOf(s12)
	// T1 filtered by V=5: V is unique per row, so the histogram estimates
	// 1/NDISTINCT = 1/100 exactly — 100×0.01 = 1 (the Table 1 default would
	// have guessed 1/10; see TestTable1EqualPredicates for those pins).
	if math.Abs(c1-1) > 1e-9 {
		t.Fatalf("card(T1) = %v", c1)
	}
	// Join selectivity 1/ndistinct(K)=1/20 over 100×100×0.01.
	if math.Abs(c12-1*100/20) > 1e-9 {
		t.Fatalf("card(T1⋈T2) = %v", c12)
	}
	if o.setWidth(s12) <= o.setWidth(s1) {
		t.Fatal("composite width grows")
	}
	if o.rowWidth(0) < 8 {
		t.Fatal("row width floor")
	}
}

func TestFactorSelectivitiesExposed(t *testing.T) {
	cat := joinDB(t, 1, 50)
	_, o := planFor(t, cat, Config{}, "SELECT V FROM T1 WHERE K = 3 AND V > 5")
	sels := o.FactorSelectivities()
	if len(sels) != 2 {
		t.Fatalf("selectivities: %v", sels)
	}
	for _, s := range sels {
		if s <= 0 || s > 1 {
			t.Fatalf("out of range: %v", sels)
		}
	}
}
