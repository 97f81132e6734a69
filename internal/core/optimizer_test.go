package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/exec"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// planFor optimizes a query against the catalog and returns the query plan.
func planFor(t testing.TB, cat *catalog.Catalog, cfg Config, query string) (*plan.Query, *Optimizer) {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	o := New(cat, cfg)
	q, err := o.Optimize(blk)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	checkCost(t, cfg, q)
	return q, o
}

// checkCost fails unless Cost, at the compile's own values, prices every
// node of q, nested blocks included, exactly as the search that planned q
// under cfg annotated it.
func checkCost(t testing.TB, cfg Config, q *plan.Query) {
	t.Helper()
	est := Cost(q, cfg, nil)
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		if got, ok := est[n]; !ok || got != n.Est() {
			t.Fatalf("Cost prices %s at %+v, the search annotated %+v\nplan:\n%s", n.Label(), got, n.Est(), q.Explain())
		}
	}
	var block func(q *plan.Query)
	block = func(q *plan.Query) {
		walk(q.Root)
		for _, sp := range q.Subs {
			block(sp.Query)
		}
	}
	block(q)
}

// scanNodeOf digs the access path out of a single-relation plan.
func scanNodeOf(t testing.TB, q *plan.Query) plan.Node {
	t.Helper()
	n := q.Root
	for {
		switch x := n.(type) {
		case *plan.Project:
			n = x.Input
		case *plan.GroupAgg:
			n = x.Input
		case *plan.Distinct:
			n = x.Input
		default:
			return n
		}
	}
}

// uniqueDB: U(A unique-indexed, B clustered-indexed, C non-clustered-indexed,
// D no index), 1000 rows, wide enough to span many pages.
func uniqueDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	u, err := cat.CreateTable("U", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindInt},
		{Name: "C", Type: value.KindInt},
		{Name: "D", Type: value.KindInt},
		{Name: "PAD", Type: value.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 100)
	for i := 0; i < 1000; i++ {
		// B increases monotonically → physically clustered by insertion.
		_, err := rss.Insert(u, value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i / 10)),
			value.NewInt(int64((i * 7) % 100)),
			value.NewInt(int64(i % 5)),
			value.NewString(pad),
		}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
		if err != nil {
			t.Fatal(err)
		}
	}
	mustIndex := func(name string, cols []string, unique, clustered bool) {
		t.Helper()
		if _, err := cat.CreateIndex(name, "U", cols, unique, clustered, testutil.HeapRows(cat.Disk())); err != nil {
			t.Fatal(err)
		}
	}
	mustIndex("U_A", []string{"A"}, true, false)
	mustIndex("U_B", []string{"B"}, false, true)
	mustIndex("U_C", []string{"C"}, false, false)
	cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))
	return cat
}

// TestTable2UniqueIndexEqualCost: "unique index matching an equal predicate:
// 1+1+W".
func TestTable2UniqueIndexEqual(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{}, "SELECT D FROM U WHERE A = 500")
	scan, ok := scanNodeOf(t, q).(*plan.IndexScan)
	if !ok || scan.Index.Name != "U_A" {
		t.Fatalf("expected unique index scan, got %s", scanNodeOf(t, q).Label())
	}
	est := scan.Est()
	if est.Cost.Pages != 2 || est.Cost.RSI != 1 {
		t.Fatalf("unique-eq cost = %+v, want pages=2 rsi=1", est.Cost)
	}
}

// TestTable2CostFormulas spot-checks the matching clustered / non-clustered
// and segment-scan formulas against hand computation.
func TestTable2CostFormulas(t *testing.T) {
	cat := uniqueDB(t)
	u, _ := cat.Table("U")
	st := u.Stats
	w := DefaultW

	// Clustered index B matching B = 5: F = 1/ICARD(B)=1/100,
	// cost = F*(NINDX+TCARD) + W*RSICARD, RSICARD = NCARD/100.
	q, _ := planFor(t, cat, Config{}, "SELECT D FROM U WHERE B = 5")
	scan := scanNodeOf(t, q).(*plan.IndexScan)
	if scan.Index.Name != "U_B" || !scan.Matching {
		t.Fatalf("expected matching clustered scan, got %s", scan.Label())
	}
	ixB, _ := cat.Index("U_B")
	f := 1.0 / float64(ixB.Stats.ICardLead)
	wantPages := f * (float64(ixB.Stats.NIndx) + float64(st.TCard))
	wantRSI := f * float64(st.NCard)
	got := scan.Est().Cost
	if math.Abs(got.Pages-wantPages) > 1e-9 || math.Abs(got.RSI-wantRSI) > 1e-9 {
		t.Fatalf("clustered matching cost %+v, want pages=%v rsi=%v", got, wantPages, wantRSI)
	}

	// Segment scan on unindexed D: TCARD/P + W*RSICARD.
	qd, _ := planFor(t, cat, Config{}, "SELECT A FROM U WHERE D = 3")
	seg, ok := scanNodeOf(t, qd).(*plan.SegScan)
	if !ok {
		t.Fatalf("expected segment scan for unindexed predicate, got %s", scanNodeOf(t, qd).Label())
	}
	wantSeg := float64(st.TCard) / st.P
	if math.Abs(seg.Est().Cost.Pages-wantSeg) > 1e-9 {
		t.Fatalf("segment scan pages %v, want %v", seg.Est().Cost.Pages, wantSeg)
	}
	_ = w
}

// TestTable2BufferFitAlternative: with a huge buffer the non-clustered
// matching cost uses the TCARD variant; with a tiny buffer, NCARD.
func TestTable2BufferFitAlternative(t *testing.T) {
	cat := uniqueDB(t)
	u, _ := cat.Table("U")
	ixC, _ := cat.Index("U_C")
	f := 1.0 / float64(ixC.Stats.ICardLead)

	qBig, _ := planFor(t, cat, Config{BufferPages: 100000}, "SELECT A FROM U WHERE C = 5")
	scanBig := scanNodeOf(t, qBig).(*plan.IndexScan)
	wantBig := f * (float64(ixC.Stats.NIndx) + float64(u.Stats.TCard))
	if math.Abs(scanBig.Est().Cost.Pages-wantBig) > 1e-9 {
		t.Fatalf("buffer-fit pages %v, want %v", scanBig.Est().Cost.Pages, wantBig)
	}

	// Tiny buffer with a wide range predicate: the retrieved set no longer
	// fits, so the F*(NINDX+NCARD) form must apply. The chosen plan may be a
	// different path; cost the U_C path directly.
	oSmall := New(cat, Config{BufferPages: 2})
	blk := analyzeQuery(t, cat, "SELECT A FROM U WHERE C >= 5")
	if _, err := oSmall.Optimize(blk); err != nil {
		t.Fatal(err)
	}
	fr := oSmall.factors[0].sel
	if fr*(float64(ixC.Stats.NIndx)+float64(u.Stats.TCard)) <= 2 {
		t.Fatalf("test precondition: predicate too selective (f=%v)", fr)
	}
	var cPath plan.Node
	for _, p := range oSmall.genPaths(0, nil).all {
		if ix, ok := p.node.(*plan.IndexScan); ok && ix.Index.Name == "U_C" {
			cPath = p.node
		}
	}
	wantSmall := fr * (float64(ixC.Stats.NIndx) + float64(u.Stats.NCard))
	if pages := cPath.Est().Cost.Pages; math.Abs(pages-wantSmall) > 1e-9 {
		t.Fatalf("no-fit pages %v, want %v", pages, wantSmall)
	}
}

func analyzeQuery(t testing.TB, cat *catalog.Catalog, query string) *sem.Block {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestInterestingOrderAvoidsSort: ORDER BY on a clustered-indexed column
// should choose the ordered index scan rather than sorting, and ORDER BY on
// an unindexed column must sort.
func TestInterestingOrderAvoidsSort(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{}, "SELECT B FROM U ORDER BY B")
	if _, isSort := scanNodeOf(t, q).(*plan.Sort); isSort {
		t.Fatalf("ORDER BY on clustered index column should not sort:\n%s", q.Explain())
	}
	scan := scanNodeOf(t, q).(*plan.IndexScan)
	if scan.Index.Name != "U_B" {
		t.Fatalf("expected U_B scan, got %s", scan.Label())
	}

	q2, _ := planFor(t, cat, Config{}, "SELECT D FROM U ORDER BY D")
	foundSort := false
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if _, ok := n.(*plan.Sort); ok {
			foundSort = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(q2.Root)
	if !foundSort {
		t.Fatalf("ORDER BY on unindexed column must sort:\n%s", q2.Explain())
	}

	// Ablation: with interesting orders disabled even the indexed case
	// sorts.
	q3, _ := planFor(t, cat, Config{DisableInterestingOrders: true}, "SELECT B FROM U ORDER BY B")
	if _, isSort := scanNodeOf(t, q3).(*plan.Sort); !isSort {
		t.Fatalf("DisableInterestingOrders should force a sort:\n%s", q3.Explain())
	}
}

// TestOrderByDescendingMustSort: index scans produce ascending order only.
func TestOrderByDescendingMustSort(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{}, "SELECT B FROM U ORDER BY B DESC")
	if _, isSort := scanNodeOf(t, q).(*plan.Sort); !isSort {
		t.Fatalf("descending order requires a sort:\n%s", q.Explain())
	}
}

// joinDB builds T1, T2, T3, T4 where Ti.K joins and only adjacent pairs have
// join predicates available; T4 is disconnected (Cartesian).
func joinDB(t testing.TB, tables int, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	for ti := 1; ti <= tables; ti++ {
		tab, err := cat.CreateTable(fmt.Sprintf("T%d", ti), []catalog.Column{
			{Name: "K", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			rss.Insert(tab, value.Row{value.NewInt(int64(i % 20)), value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
		}
		if _, err := cat.CreateIndex(fmt.Sprintf("T%d_K", ti), fmt.Sprintf("T%d", ti), []string{"K"}, false, false, testutil.HeapRows(cat.Disk())); err != nil {
			t.Fatal(err)
		}
	}
	cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))
	return cat
}

// TestJoinHeuristicPrunesPermutations reproduces the paper's own example:
// "if T1,T2,T3 are the three relations ... and there are join predicates
// between T1 and T2 and between T2 and T3 ... then the following permutations
// are not considered: T1-T3-T2, T3-T1-T2" — i.e. the subset {T1,T3} is never
// explored with the heuristic on, and is explored with it off.
func TestJoinHeuristicPrunesPermutations(t *testing.T) {
	cat := joinDB(t, 3, 100)
	query := "SELECT T1.V FROM T1, T2, T3 WHERE T1.K = T2.K AND T2.K = T3.K"
	tr := &Trace{}
	planFor(t, cat, Config{Trace: tr}, query)
	for _, e := range tr.Events {
		if e.Size == 2 && e.Subset.Has(0) && e.Subset.Has(2) {
			t.Fatalf("subset {T1,T3} (a Cartesian product) was explored: %+v", e)
		}
	}
	tr2 := &Trace{}
	planFor(t, cat, Config{Trace: tr2, DisableJoinHeuristic: true}, query)
	found := false
	for _, e := range tr2.Events {
		if e.Size == 2 && e.Subset.Has(0) && e.Subset.Has(2) {
			found = true
		}
	}
	if !found {
		t.Fatal("DisableJoinHeuristic should explore the Cartesian pair")
	}
}

// TestHeuristicReducesSearch: the heuristic must strictly shrink the number
// of candidates for a chain join with a disconnected relation.
func TestHeuristicReducesSearch(t *testing.T) {
	cat := joinDB(t, 4, 60)
	query := "SELECT T1.V FROM T1, T2, T3, T4 WHERE T1.K = T2.K AND T2.K = T3.K"
	_, oOn := planFor(t, cat, Config{}, query)
	_, oOff := planFor(t, cat, Config{DisableJoinHeuristic: true}, query)
	if oOn.Stats().CandidatesConsidered >= oOff.Stats().CandidatesConsidered {
		t.Fatalf("heuristic did not reduce search: %d vs %d",
			oOn.Stats().CandidatesConsidered, oOff.Stats().CandidatesConsidered)
	}
}

// TestSolutionsStoredBound: "the number of solutions ... is at most 2^n times
// the number of interesting result orders".
func TestSolutionsStoredBound(t *testing.T) {
	cat := joinDB(t, 4, 60)
	query := "SELECT T1.V FROM T1, T2, T3, T4 WHERE T1.K = T2.K AND T2.K = T3.K AND T3.K = T4.K"
	_, o := planFor(t, cat, Config{DisableJoinHeuristic: true}, query)
	n := 4
	orders := len(o.interest) + 1 // plus the unordered slot
	bound := (1 << n) * orders
	if got := o.Stats().SolutionsStored; got > bound {
		t.Fatalf("solutions stored %d exceeds 2^n×orders = %d", got, bound)
	}
	if o.Stats().SolutionsStored == 0 || o.Stats().CandidatesConsidered == 0 {
		t.Fatal("search statistics must be populated")
	}
}

// TestChosenPlanIsCheapestEstimate: the returned plan's estimated cost must
// not exceed any kept alternative for the full relation set.
func TestChosenPlanIsCheapestEstimate(t *testing.T) {
	cat := joinDB(t, 3, 100)
	tr := &Trace{}
	q, _ := planFor(t, cat, Config{Trace: tr},
		"SELECT T1.V FROM T1, T2, T3 WHERE T1.K = T2.K AND T2.K = T3.K")
	chosen := q.Root.Est().Cost.Total(DefaultW)
	for _, e := range tr.Events {
		if e.Size == 3 && e.Kept && e.Order == "" && e.Cost < chosen-1e-9 {
			t.Fatalf("kept unordered candidate %v cheaper than chosen %v (%s)", e.Cost, chosen, e.Desc)
		}
	}
}

// TestNestedLoopPushesJoinPredicate: the inner scan of an NL join must use
// the join column index with a parameter bound.
func TestNestedLoopPushesJoinPredicate(t *testing.T) {
	cat := joinDB(t, 2, 200)
	q, _ := planFor(t, cat, Config{Joins: NestedLoopsOnly},
		"SELECT T1.V FROM T1, T2 WHERE T1.K = T2.K")
	nl, ok := scanNodeOf(t, q).(*plan.NLJoin)
	if !ok {
		t.Fatalf("expected NL join, got %s", scanNodeOf(t, q).Label())
	}
	if len(nl.Binds) != 1 {
		t.Fatalf("join predicate not pushed: %s", nl.Label())
	}
	inner, ok := nl.Inner.(*plan.IndexScan)
	if !ok {
		t.Fatalf("inner should be an index scan, got %s", nl.Inner.Label())
	}
	if len(inner.Lo) != 1 || inner.Lo[0].Kind != sem.BoundParam {
		t.Fatalf("inner start key should be a parameter: %s", inner.Label())
	}
}

// TestMergeJoinChosenForSortedInputs: when both sides have ordered paths on
// the join column and the join is large, merge should win under MergeOnly
// and produce a MergeJoin node.
func TestMergeJoinPlanShape(t *testing.T) {
	cat := joinDB(t, 2, 500)
	q, _ := planFor(t, cat, Config{Joins: MergeOnly},
		"SELECT T1.V FROM T1, T2 WHERE T1.K = T2.K")
	mj, ok := scanNodeOf(t, q).(*plan.MergeJoin)
	if !ok {
		t.Fatalf("expected merge join, got %s", scanNodeOf(t, q).Label())
	}
	if mj.Label() == "" {
		t.Fatal("label must render")
	}
}

// TestTraceRenderFigures pins the rendered search tree (the Figures 2-6
// sections) byte for byte against testdata/search_*.golden: every candidate
// each join step proposes, its cost, its order and whether it was kept, plus
// the exact search statistics. A refactor of access path selection that
// keeps the paper's cost model must leave both unchanged.
func TestTraceRenderFigures(t *testing.T) {
	for _, c := range []struct {
		name  string
		cat   func(t *testing.T) *catalog.Catalog
		query string
		stats SearchStats
	}{
		{
			name:  "chain3",
			cat:   func(t *testing.T) *catalog.Catalog { return joinDB(t, 3, 100) },
			query: "SELECT T1.V FROM T1, T2, T3 WHERE T1.K = T2.K AND T2.K = T3.K",
			stats: SearchStats{CandidatesConsidered: 48, SolutionsStored: 12, SubsetsExpanded: 5},
		},
		{
			// Four relations with a unique, a clustered and plain indexes; two
			// hash-eligible equi-joins, a non-equi join predicate pushed into
			// nested-loop inners, a sargable and a residual local factor, and
			// an ORDER BY that keeps ordered solutions alive.
			name: "join4",
			cat: func(t *testing.T) *catalog.Catalog {
				cat := joinDB(t, 4, 120)
				if _, err := cat.CreateIndex("T3_V", "T3", []string{"V"}, true, false, testutil.HeapRows(cat.Disk())); err != nil {
					t.Fatal(err)
				}
				if _, err := cat.CreateIndex("T2_V", "T2", []string{"V"}, false, true, testutil.HeapRows(cat.Disk())); err != nil {
					t.Fatal(err)
				}
				cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))
				return cat
			},
			query: "SELECT T1.V, T4.K FROM T1, T2, T3, T4 WHERE T1.K = T2.K AND T2.V < T3.V" +
				" AND T3.V = T4.V AND T4.K > 3 AND T1.V + 0 > 5 ORDER BY T2.K",
			stats: SearchStats{CandidatesConsidered: 68, SolutionsStored: 23, SubsetsExpanded: 9},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{}
			_, o := planFor(t, c.cat(t), Config{Trace: tr}, c.query)
			if got := o.Stats(); got != c.stats {
				t.Errorf("search stats = %+v, want %+v", got, c.stats)
			}
			path := filepath.Join("testdata", "search_"+c.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Render(); got != string(want) {
				t.Fatalf("search trace drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
	var nilTrace *Trace
	if nilTrace.Render() == "" {
		t.Fatal("nil trace renders a placeholder")
	}
}

// TestCompositeIndexMatching: index matching by predicate shape. A factor
// "column comparison-operator value" on a prefix of the (A,B) key matches
// the index and supplies its start/stop keys; <>, IN lists (even IN (v)),
// NOT BETWEEN and OR stay search arguments and match nothing.
func TestCompositeIndexMatching(t *testing.T) {
	cat := catalog.New(storage.NewDisk())
	tab, _ := cat.CreateTable("M", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindInt},
		{Name: "C", Type: value.KindInt},
	}, "")
	for i := 0; i < 300; i++ {
		rss.Insert(tab, value.Row{
			value.NewInt(int64(i % 10)), value.NewInt(int64(i % 30)), value.NewInt(int64(i)),
		}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	outer, _ := cat.CreateTable("N", []catalog.Column{{Name: "X", Type: value.KindInt}}, "")
	for i := 0; i < 5; i++ {
		rss.Insert(outer, value.Row{value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, cat.Disk())
	}
	cat.CreateIndex("M_AB", "M", []string{"A", "B"}, false, false, testutil.HeapRows(cat.Disk()))
	cat.UpdateStatistics("", testutil.HeapRows(cat.Disk()))

	for _, c := range []struct {
		where        string
		matching     bool
		lo, hi       string
		loInc, hiInc bool
	}{
		{"A = 3", true, "[3]", "[3]", true, true},
		{"A < 3", true, "[]", "[3]", true, false},
		{"A <= 3", true, "[]", "[3]", true, true},
		{"A > 3", true, "[3]", "[]", false, true},
		{"A >= 3", true, "[3]", "[]", true, true},
		{"3 < A", true, "[3]", "[]", false, true},
		{"A BETWEEN 2 AND 5", true, "[2]", "[5]", true, true},
		{"A = 3 AND B > 10", true, "[3 10]", "[3]", false, true},
		{"A = N.X", true, "[$0]", "[$0]", true, true}, // nested-loop inner
		{"A <> 3", false, "[]", "[]", true, true},
		{"A IN (3)", false, "[]", "[]", true, true},
		{"A IN (3, 4)", false, "[]", "[]", true, true},
		{"A NOT BETWEEN 2 AND 5", false, "[]", "[]", true, true},
		{"A = 3 OR A = 4", false, "[]", "[]", true, true},
	} {
		t.Run(c.where, func(t *testing.T) {
			var scan *plan.IndexScan
			if strings.Contains(c.where, "N.") {
				q, _ := planFor(t, cat, Config{Joins: NestedLoopsOnly}, "SELECT C FROM N, M WHERE "+c.where)
				nl, ok := scanNodeOf(t, q).(*plan.NLJoin)
				if !ok {
					t.Fatalf("expected a nested-loop join, got %s", scanNodeOf(t, q).Label())
				}
				scan, _ = nl.Inner.(*plan.IndexScan)
			} else {
				_, o := planFor(t, cat, Config{}, "SELECT C FROM M WHERE "+c.where)
				for _, p := range o.genPaths(0, nil).all {
					if ix, ok := p.node.(*plan.IndexScan); ok {
						scan = ix
					}
				}
			}
			if scan == nil || scan.Index.Name != "M_AB" {
				t.Fatal("no M_AB index scan")
			}
			got := fmt.Sprintf("%v %v %v %v %v", scan.Matching, scan.Lo, scan.Hi, scan.LoInc, scan.HiInc)
			want := fmt.Sprintf("%v %v %v %v %v", c.matching, c.lo, c.hi, c.loInc, c.hiInc)
			if got != want {
				t.Fatalf("matching lo hi loInc hiInc: got %s, want %s", got, want)
			}
		})
	}
}

// TestScalarSubqueryBoundUsableAsIndexKey: col = (subquery) matches an index
// with a deferred bound.
func TestScalarSubqueryBoundUsableAsIndexKey(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{}, "SELECT D FROM U WHERE A = (SELECT MAX(C) FROM U)")
	scan, ok := scanNodeOf(t, q).(*plan.IndexScan)
	if !ok || scan.Index.Name != "U_A" {
		t.Fatalf("expected unique-index probe with subquery bound, got %s", scanNodeOf(t, q).Label())
	}
	if len(scan.Lo) != 1 || scan.Lo[0].Kind != sem.BoundSub {
		t.Fatalf("start key should be the subquery bound: %+v", scan.Lo)
	}
	if len(q.Subs) != 1 {
		t.Fatal("subquery plan must be attached")
	}
}

// TestNaivePlanShape: in every query block, nested ones included, the
// baseline uses segment scans without search arguments and FROM-order
// nested-loop joins only, and it returns the optimized plan's rows.
func TestNaivePlanShape(t *testing.T) {
	cat := joinDB(t, 3, 100)
	rt := &exec.Runtime{Pool: storage.NewBufferPool(cat.Disk(), 32, &storage.IOStats{}), Disk: cat.Disk()}
	for _, c := range []struct {
		name, query string
		seg, nl     int // over all blocks
	}{
		{"join", "SELECT T1.V FROM T1, T2, T3 WHERE T1.K = T2.K AND T2.K = T3.K AND T3.V = 5", 3, 2},
		{"in_subquery", "SELECT T1.V FROM T1 WHERE T1.K IN (SELECT T2.K FROM T2, T3 WHERE T2.V = T3.V AND T3.V < 10)", 3, 1},
		{"correlated", "SELECT T1.V FROM T1 WHERE T1.V > (SELECT MIN(T2.V) FROM T2, T3 WHERE T2.K = T3.K AND T2.K = T1.K)", 3, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			naive, err := New(cat, Config{Naive: true}).Optimize(analyzeQuery(t, cat, c.query))
			if err != nil {
				t.Fatal(err)
			}
			var seg, nl int
			var walk func(n plan.Node)
			walk = func(n plan.Node) {
				switch x := n.(type) {
				case *plan.SegScan:
					seg++
					if len(x.Sargs) > 0 {
						t.Errorf("naive plan uses search arguments: %s", x.Label())
					}
				case *plan.NLJoin:
					nl++
				case *plan.IndexScan, *plan.MergeJoin, *plan.HashJoin:
					t.Errorf("naive plan contains %s", n.Label())
				}
				for _, ch := range n.Children() {
					walk(ch)
				}
			}
			var walkQuery func(q *plan.Query)
			walkQuery = func(q *plan.Query) {
				walk(q.Root)
				for _, sp := range q.Subs {
					walkQuery(sp.Query)
				}
			}
			walkQuery(naive)
			if seg != c.seg || nl != c.nl {
				t.Fatalf("naive plan shape: seg=%d nl=%d, want %d and %d\n%s", seg, nl, c.seg, c.nl, naive.Explain())
			}

			opt, _ := planFor(t, cat, Config{}, c.query)
			got, _, err := exec.RunQuery(rt, naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := exec.RunQuery(rt, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !testutil.SameMultiset(got, want) {
				t.Fatalf("naive plan returned %d rows, optimized %d (or they differ)", len(got), len(want))
			}
		})
	}
}

// TestExplainOutput: EXPLAIN includes costs, rows, and subquery blocks.
func TestExplainOutput(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{},
		"SELECT B, COUNT(*) FROM U WHERE C > 50 AND A = (SELECT MAX(C) FROM U) GROUP BY B")
	out := q.Explain()
	for _, frag := range []string{"QUERY BLOCK (main)", "QUERY BLOCK (subquery #1)", "GROUP", "cost:", "rows="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("explain lacks %q:\n%s", frag, out)
		}
	}
}

// TestCorrelatedSubqueryUsesIndexInside: within a correlated subquery block,
// the correlation predicate (column = $parameter) is sargable and must match
// an index on the referenced column — the access path that makes per-tuple
// re-evaluation affordable.
func TestCorrelatedSubqueryUsesIndexInside(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{},
		"SELECT D FROM U X WHERE C > (SELECT MIN(C) FROM U WHERE B = X.B)")
	if len(q.Subs) != 1 || !q.Subs[0].Sub.Correlated {
		t.Fatalf("expected one correlated subquery, got %+v", q.Subs)
	}
	scan, ok := scanNodeOf(t, q.Subs[0].Query).(*plan.IndexScan)
	if !ok || scan.Index.Name != "U_B" {
		t.Fatalf("subquery should probe U_B with the correlation parameter, got %s",
			scanNodeOf(t, q.Subs[0].Query).Label())
	}
	if len(scan.Lo) != 1 || scan.Lo[0].Kind != sem.BoundParam {
		t.Fatalf("subquery index key should be the correlation parameter: %+v", scan.Lo)
	}
}

// TestSubqueryPlanCountMatchesBlocks: every nested block gets exactly one
// plan, including blocks nested inside blocks.
func TestSubqueryPlanCountMatchesBlocks(t *testing.T) {
	cat := uniqueDB(t)
	q, _ := planFor(t, cat, Config{},
		`SELECT D FROM U WHERE A > (SELECT MIN(A) FROM U WHERE C IN (SELECT C FROM U WHERE B = 1))`)
	if len(q.Subs) != 1 {
		t.Fatalf("top-level subqueries: %d", len(q.Subs))
	}
	if len(q.Subs[0].Query.Subs) != 1 {
		t.Fatalf("nested subqueries: %d", len(q.Subs[0].Query.Subs))
	}
}

// TestCorrelatedResidualPrefersOrderedPath — the Section 6 extension: when a
// residual predicate re-evaluates a correlated subquery per candidate tuple,
// an access path ordered on the referenced column cuts evaluations to one
// per distinct value, and the optimizer's costing must prefer it even though
// the plain scan is cheaper in isolation.
func TestCorrelatedResidualPrefersOrderedPath(t *testing.T) {
	cat := uniqueDB(t)
	// B is the clustered index column (100 distinct values over 1000 rows):
	// ordered delivery gives 100 evaluations instead of 1000.
	q, _ := planFor(t, cat, Config{},
		"SELECT D FROM U X WHERE C > (SELECT AVG(C) FROM U WHERE B = X.B)")
	scan, ok := scanNodeOf(t, q).(*plan.IndexScan)
	if !ok || scan.Index.Name != "U_B" {
		t.Fatalf("expected the B-ordered path for the correlated residual, got %s",
			scanNodeOf(t, q).Label())
	}
	// Sanity: with a plain (non-correlated) residual the segment scan wins.
	q2, _ := planFor(t, cat, Config{}, "SELECT D FROM U WHERE C + 0 > 50")
	if _, isSeg := scanNodeOf(t, q2).(*plan.SegScan); !isSeg {
		t.Fatalf("plain residual query should use the segment scan, got %s",
			scanNodeOf(t, q2).Label())
	}
}

// TestOptimizerDeterminism: planning the same query twice yields identical
// search statistics and identical EXPLAIN output (no map-iteration
// nondeterminism in the DP).
func TestOptimizerDeterminism(t *testing.T) {
	cat := joinDB(t, 4, 120)
	query := "SELECT T1.V FROM T1, T2, T3, T4 WHERE T1.K = T2.K AND T2.K = T3.K AND T3.K = T4.K ORDER BY T1.K"
	var firstPlan string
	var firstStats SearchStats
	for i := 0; i < 5; i++ {
		q, o := planFor(t, cat, Config{}, query)
		if i == 0 {
			firstPlan = q.Explain()
			firstStats = o.Stats()
			continue
		}
		if got := q.Explain(); got != firstPlan {
			t.Fatalf("run %d produced a different plan:\n%s\nvs\n%s", i, got, firstPlan)
		}
		if o.Stats() != firstStats {
			t.Fatalf("run %d search stats differ: %+v vs %+v", i, o.Stats(), firstStats)
		}
	}
}
