package exec

import (
	"strings"
	"testing"
	"unsafe"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

type env struct {
	disk  *storage.Disk
	stats *storage.IOStats
	pool  *storage.BufferPool
	cat   *catalog.Catalog
	rt    *Runtime
}

func newEnv(t testing.TB) *env {
	t.Helper()
	disk := storage.NewDisk()
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(disk, 32, stats)
	testutil.AssertNoLeaks(t, pool)
	return &env{
		disk: disk, stats: stats, pool: pool,
		cat: catalog.New(disk),
		rt:  &Runtime{Pool: pool, Disk: disk},
	}
}

func (e *env) exec(t testing.TB, query string, cfg core.Config) ([]value.Row, *Stats) {
	t.Helper()
	st, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	if err != nil {
		t.Fatalf("analyze %q: %v", query, err)
	}
	q, err := core.New(e.cat, cfg).Optimize(blk)
	if err != nil {
		t.Fatalf("optimize %q: %v", query, err)
	}
	rows, stats, err := RunQuery(e.rt, q, nil)
	if err != nil {
		t.Fatalf("execute %q: %v\n%s", query, err, q.Explain())
	}
	return rows, stats
}

// loadPair loads L(K,V) and R(K,W) with controlled duplicate join keys.
func (e *env) loadPair(t testing.TB) {
	t.Helper()
	l, _ := e.cat.CreateTable("L", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}, "")
	r, _ := e.cat.CreateTable("R", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "W", Type: value.KindInt}}, "")
	// L: keys 1,1,2,3 ; R: keys 1,2,2,5 → join rows: (1)×2 + (2)×2 = 4.
	for i, k := range []int64{1, 1, 2, 3} {
		rss.Insert(l, value.Row{value.NewInt(k), value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	for i, k := range []int64{1, 2, 2, 5} {
		rss.Insert(r, value.Row{value.NewInt(k), value.NewInt(int64(100 + i))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	e.cat.CreateIndex("L_K", "L", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk()))
	e.cat.CreateIndex("R_K", "R", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk()))
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
}

func TestJoinDuplicateSemantics(t *testing.T) {
	for _, cfg := range []core.Config{
		{Joins: core.NestedLoopsOnly},
		{Joins: core.MergeOnly},
	} {
		e := newEnv(t)
		e.loadPair(t)
		rows, _ := e.exec(t, "SELECT L.V, R.W FROM L, R WHERE L.K = R.K", cfg)
		if len(rows) != 4 {
			t.Fatalf("cfg %+v: want 4 join rows, got %d: %v", cfg, len(rows), rows)
		}
		// Key 1 matches twice on the L side, key 2 twice on the R side.
		count := map[int64]int{}
		for _, r := range rows {
			count[r[0].Int]++
		}
		if count[0] != 1 || count[1] != 1 {
			t.Fatalf("duplicate outer keys mishandled: %v", rows)
		}
	}
}

func TestMergeJoinNullKeysMatchNothing(t *testing.T) {
	e := newEnv(t)
	l, _ := e.cat.CreateTable("L", []catalog.Column{{Name: "K", Type: value.KindInt}}, "")
	r, _ := e.cat.CreateTable("R", []catalog.Column{{Name: "K", Type: value.KindInt}}, "")
	rss.Insert(l, value.Row{value.Null()}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(l, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(r, value.Row{value.Null()}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(r, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	for _, cfg := range []core.Config{{Joins: core.MergeOnly}, {Joins: core.NestedLoopsOnly}} {
		rows, _ := e.exec(t, "SELECT L.K FROM L, R WHERE L.K = R.K", cfg)
		if len(rows) != 1 {
			t.Fatalf("NULL keys must not join (cfg %+v): %v", cfg, rows)
		}
	}
}

func TestCorrelatedSubqueryCaching(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{
		{Name: "G", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}, "")
	// 30 rows, G cycles 0,0,0,1,1,1,... (10 groups of 3, inserted in G
	// order so the correlated value repeats consecutively).
	for g := 0; g < 10; g++ {
		for i := 0; i < 3; i++ {
			rss.Insert(tab, value.Row{value.NewInt(int64(g)), value.NewInt(int64(g*3 + i))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
		}
	}
	e.cat.CreateIndex("T_G", "T", []string{"G"}, false, true, testutil.HeapRows(e.cat.Disk()))
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))

	// The outer scan delivers rows in G order (clustered index), so the
	// same-value cache of Section 6 re-evaluates once per distinct G.
	_, stats := e.exec(t,
		"SELECT V FROM T X WHERE V > (SELECT AVG(V) FROM T WHERE G = X.G)", core.Config{})
	if stats.SubqueryEvals != 10 {
		t.Fatalf("want 10 subquery evaluations (one per distinct G), got %d", stats.SubqueryEvals)
	}
}

func TestNonCorrelatedSubqueryEvaluatedOnce(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	for i := 0; i < 50; i++ {
		rss.Insert(tab, value.Row{value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, stats := e.exec(t, "SELECT V FROM T WHERE V > (SELECT AVG(V) FROM T)", core.Config{})
	if len(rows) != 25 {
		t.Fatalf("want 25 rows, got %d", len(rows))
	}
	if stats.SubqueryEvals != 1 {
		t.Fatalf("non-correlated subquery must evaluate once, got %d", stats.SubqueryEvals)
	}
}

func TestScalarSubqueryCardinalityError(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	rss.Insert(tab, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(tab, value.Row{value.NewInt(2)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	st, _ := sql.Parse("SELECT V FROM T WHERE V = (SELECT V FROM T)")
	blk, err := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunQuery(e.rt, q, nil); err == nil || !strings.Contains(err.Error(), "returned 2 rows") {
		t.Fatalf("want cardinality error, got %v", err)
	}
}

func TestEmptyScalarSubqueryIsNull(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	rss.Insert(tab, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	// Empty subquery → NULL → comparison false → no rows.
	rows, _ := e.exec(t, "SELECT V FROM T WHERE V = (SELECT V FROM T WHERE V = 99)", core.Config{})
	if len(rows) != 0 {
		t.Fatalf("NULL comparison must be false: %v", rows)
	}
}

func TestScalarAggregateOverEmptyInput(t *testing.T) {
	e := newEnv(t)
	e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, _ := e.exec(t, "SELECT COUNT(*), COUNT(V), SUM(V), AVG(V), MIN(V), MAX(V) FROM T", core.Config{})
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate must yield one row, got %d", len(rows))
	}
	r := rows[0]
	if r[0].Int != 0 || r[1].Int != 0 {
		t.Fatalf("COUNTs over empty input: %v", r)
	}
	for i := 2; i < 6; i++ {
		if !r[i].IsNull() {
			t.Fatalf("aggregate %d over empty input must be NULL: %v", i, r)
		}
	}
}

func TestGroupedQueryOverEmptyInputHasNoRows(t *testing.T) {
	e := newEnv(t)
	e.cat.CreateTable("T", []catalog.Column{{Name: "G", Type: value.KindInt}, {Name: "V", Type: value.KindInt}}, "")
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, _ := e.exec(t, "SELECT G, COUNT(*) FROM T GROUP BY G", core.Config{})
	if len(rows) != 0 {
		t.Fatalf("no groups expected: %v", rows)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	rss.Insert(tab, value.Row{value.NewInt(10)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(tab, value.Row{value.Null()}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	rss.Insert(tab, value.Row{value.NewInt(20)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, _ := e.exec(t, "SELECT COUNT(*), COUNT(V), SUM(V), AVG(V) FROM T", core.Config{})
	r := rows[0]
	if r[0].Int != 3 || r[1].Int != 2 || r[2].Int != 30 || r[3].Float != 15 {
		t.Fatalf("NULL-aware aggregates: %v", r)
	}
}

func TestDistinctPreservesOrder(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{{Name: "V", Type: value.KindInt}}, "")
	for _, v := range []int64{3, 1, 3, 2, 1, 2, 2} {
		rss.Insert(tab, value.Row{value.NewInt(v)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, _ := e.exec(t, "SELECT DISTINCT V FROM T ORDER BY V", core.Config{})
	if len(rows) != 3 {
		t.Fatalf("distinct: %v", rows)
	}
	for i, want := range []int64{1, 2, 3} {
		if rows[i][0].Int != want {
			t.Fatalf("distinct+order: %v", rows)
		}
	}
}

func TestSortSpillsThroughTempPages(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{
		{Name: "V", Type: value.KindInt}, {Name: "PAD", Type: value.KindString}}, "")
	pad := strings.Repeat("z", 200)
	for i := 0; i < 2000; i++ {
		rss.Insert(tab, value.Row{value.NewInt(int64((i * 7919) % 2000)), value.NewString(pad)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, stats := e.exec(t, "SELECT V FROM T ORDER BY V", core.Config{BufferPages: 8})
	if len(rows) != 2000 {
		t.Fatalf("row count %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].Int > rows[i][0].Int {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if stats.IO.PagesWritten == 0 {
		t.Fatal("a large sort must write temporary pages")
	}
}

func TestNLJoinRebindsParameters(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	// Force NL with the index on R: every outer row re-opens the inner scan
	// with its own key, so results must pair correctly.
	rows, _ := e.exec(t, "SELECT L.K, R.K FROM L, R WHERE L.K = R.K", core.Config{Joins: core.NestedLoopsOnly})
	for _, r := range rows {
		if r[0].Int != r[1].Int {
			t.Fatalf("parameter rebinding broken: %v", r)
		}
	}
}

func TestProjectionExpressions(t *testing.T) {
	e := newEnv(t)
	tab, _ := e.cat.CreateTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt}, {Name: "B", Type: value.KindFloat}}, "")
	rss.Insert(tab, value.Row{value.NewInt(7), value.NewFloat(2.5)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	rows, _ := e.exec(t, "SELECT A * 2 + 1, B / 0, -A FROM T", core.Config{})
	r := rows[0]
	if r[0].Int != 15 {
		t.Fatalf("arith: %v", r)
	}
	if !r[1].IsNull() {
		t.Fatalf("division by zero must be NULL: %v", r)
	}
	if r[2].Int != -7 {
		t.Fatalf("negation: %v", r)
	}
}

func TestExplainMatchesExecutionShape(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	st, _ := sql.Parse("SELECT L.V FROM L, R WHERE L.K = R.K AND R.W > 100")
	blk, _ := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	out := q.Explain()
	if !strings.Contains(out, "JOIN") || !strings.Contains(out, "PROJECT") {
		t.Fatalf("explain shape:\n%s", out)
	}
	if _, _, err := RunQuery(e.rt, q, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompLayoutRoundTrip(t *testing.T) {
	blk := &sem.Block{Rels: []*sem.RelRef{
		{Idx: 0, Table: &catalog.Table{Columns: make([]catalog.Column, 2)}},
		{Idx: 1, Table: &catalog.Table{Columns: make([]catalog.Column, 3)}},
	}}
	l := newCompLayout(blk)
	c := comp{
		value.Row{value.NewInt(1), value.NewString("x")},
		nil,
	}
	flat := make(value.Row, l.total)
	l.flatten(flat, c)
	back := make(comp, len(blk.Rels))
	l.unflatten(back, flat)
	if back[1] != nil {
		t.Fatal("missing slot must stay nil")
	}
	if len(back[0]) != 2 || cap(back[0]) != 2 {
		t.Fatalf("unflattened slot len %d cap %d, want 2 and 2", len(back[0]), cap(back[0]))
	}
	if value.Compare(back[0][0], c[0][0]) != 0 || value.Compare(back[0][1], c[0][1]) != 0 {
		t.Fatalf("round trip: %v", back)
	}
	if l.pos(sem.ColumnID{Rel: 1, Col: 2}) != 3+1+2 {
		t.Fatalf("pos: %d", l.pos(sem.ColumnID{Rel: 1, Col: 2}))
	}
}

func TestManyJoinKeysStress(t *testing.T) {
	e := newEnv(t)
	l, _ := e.cat.CreateTable("L", []catalog.Column{{Name: "K", Type: value.KindInt}}, "")
	r, _ := e.cat.CreateTable("R", []catalog.Column{{Name: "K", Type: value.KindInt}}, "")
	// L: every key 0..49 three times; R: every even key twice.
	for rep := 0; rep < 3; rep++ {
		for k := 0; k < 50; k++ {
			rss.Insert(l, value.Row{value.NewInt(int64(k))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
		}
	}
	for rep := 0; rep < 2; rep++ {
		for k := 0; k < 50; k += 2 {
			rss.Insert(r, value.Row{value.NewInt(int64(k))}, storage.FrozenXID, storage.NoPrevTID, e.disk)
		}
	}
	e.cat.CreateIndex("L_K", "L", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk()))
	e.cat.CreateIndex("R_K", "R", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk()))
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	want := 25 * 3 * 2
	for _, cfg := range []core.Config{{Joins: core.MergeOnly}, {Joins: core.NestedLoopsOnly}, {}} {
		rows, _ := e.exec(t, "SELECT L.K FROM L, R WHERE L.K = R.K", cfg)
		if len(rows) != want {
			t.Fatalf("cfg %+v: %d rows, want %d", cfg, len(rows), want)
		}
	}
}

func TestRunQueryStatsPopulated(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	_, stats := e.exec(t, "SELECT L.V FROM L WHERE K = 1", core.Config{})
	if stats.Rows != 2 || stats.IO.RSICalls == 0 || stats.IO.LogicalReads == 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestUnsupportedPlanNodeError(t *testing.T) {
	ctx := &blockCtx{q: &plan.Query{Block: &sem.Block{}, Root: &plan.SegScan{}}}
	if _, err := ctx.buildRoot(); err == nil {
		t.Fatal("SegScan at root must be rejected")
	}
	if _, err := ctx.build(nil); err == nil {
		t.Fatal("unknown plan node must be rejected")
	}
	if _, err := ctx.build(&plan.Distinct{Input: &plan.SegScan{}}); err == nil {
		t.Fatal("DISTINCT over a non-output node must be rejected")
	}
}

func TestMergeJoinResidualPredicates(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	rows, _ := e.exec(t,
		"SELECT L.V, R.W FROM L, R WHERE L.K = R.K AND L.V + R.W > 102", core.Config{Joins: core.MergeOnly})
	for _, r := range rows {
		if r[0].Int+r[1].Int <= 102 {
			t.Fatalf("residual not applied: %v", r)
		}
	}
	if len(rows) == 0 {
		t.Fatal("expected surviving rows")
	}
}

func TestCursorStreamsAndStats(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	st, _ := sql.Parse("SELECT L.V FROM L, R WHERE L.K = R.K")
	blk, _ := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := OpenQuery(e.rt, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Stats() != nil {
		t.Fatal("stats must be nil before drain")
	}
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("streamed %d rows", n)
	}
	st2 := cur.Stats()
	if st2 == nil || st2.Rows != 4 || st2.IO.RSICalls == 0 {
		t.Fatalf("cursor stats: %+v", st2)
	}
	// Next after end stays closed.
	if _, ok, _ := cur.Next(); ok {
		t.Fatal("cursor must stay exhausted")
	}
	cur.Close() // idempotent

	// Early close finalizes stats.
	cur2, _ := OpenQuery(e.rt, q, nil)
	cur2.Next()
	cur2.Close()
	if cur2.Stats() == nil {
		t.Fatal("early close must finalize stats")
	}
}

// dmlPlan lifts, analyzes and plans a DELETE or UPDATE, and returns the
// plan and its arguments, the lifted literals.
func (e *env) dmlPlan(t *testing.T, text string) (*plan.Query, []value.Value) {
	t.Helper()
	norm, lits, _ := sql.Lift(text)
	st, err := sql.Parse(norm)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, err := sem.AnalyzeLifted(st, e.cat, lits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	return q, lits
}

func TestCollectTargetsViaIndexPath(t *testing.T) {
	e := newEnv(t)
	// Two rows per key over enough pages that a key probes the index.
	r, _ := e.cat.CreateTable("R", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "W", Type: value.KindInt}}, "")
	for i := int64(0); i < 2000; i++ {
		rss.Insert(r, value.Row{value.NewInt(i / 2), value.NewInt(100 + i)}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	}
	e.cat.CreateIndex("R_K", "R", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk()))
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))

	q, args := e.dmlPlan(t, "UPDATE R SET W = W + 1 WHERE K = 2")
	if _, ok := q.Root.(*plan.Project).Input.(*plan.IndexScan); !ok || len(args) != 1 {
		t.Fatalf("K = 2 should probe R_K with its lifted key %v:\n%s", args, q.Explain())
	}
	ts, _, err := CollectTargets(e.rt, q, args)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("collected %d targets, want 2", len(ts))
	}
	tids := map[storage.TID]bool{}
	for _, tg := range ts {
		if len(tg.Row) != 2 || tg.Row[0].Int != 2 {
			t.Fatalf("wrong row collected: %v", tg.Row)
		}
		if len(tg.Sets) != 1 || tg.Sets[0].Int != tg.Row[1].Int+1 {
			t.Fatalf("SET value %v for row %v, want W + 1", tg.Sets, tg.Row)
		}
		tids[tg.TID] = true
	}
	// Residual-only predicate (non-sargable) locates the same tuples.
	q, args = e.dmlPlan(t, "DELETE FROM R WHERE K + 0 = 2")
	if _, ok := q.Root.(*plan.Project).Input.(*plan.SegScan); !ok {
		t.Fatalf("K + 0 = 2 should segment-scan:\n%s", q.Explain())
	}
	ts, _, err = CollectTargets(e.rt, q, args)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("residual path collected %d targets, want 2", len(ts))
	}
	for _, tg := range ts {
		if !tids[tg.TID] || len(tg.Sets) != 0 {
			t.Fatalf("residual path target %+v is not one the index path located (%v)", tg, tids)
		}
	}
}

// Close is idempotent: a second Close returns nil and keeps the statistics
// snapshot taken by the first one (finish must not run twice).
func TestCursorCloseIdempotent(t *testing.T) {
	e := newEnv(t)
	e.loadPair(t)
	st, err := sql.Parse("SELECT K, V FROM L")
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sem.Analyze(st.(*sql.SelectStmt), e.cat)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.New(e.cat, core.Config{}).Optimize(blk)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := OpenQuery(e.rt, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	first := cur.Stats()
	if first == nil {
		t.Fatal("stats not published at close")
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if cur.Stats() != first {
		t.Fatal("second Close replaced the statistics snapshot")
	}
	if _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("Next after close: ok=%v err=%v", ok, err)
	}
}

// loadJoin loads a fact relation F(K, V, G) of n rows, K = G = V mod 64,
// and a dimension D(K) of the 64 keys, each with an index on K but none on
// G, so every D row joins n/64 F rows.
func loadJoin(t *testing.T, n int) *env {
	t.Helper()
	e := newEnv(t)
	f, err := e.cat.CreateTable("F", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "V", Type: value.KindInt}, {Name: "G", Type: value.KindInt}}, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.cat.CreateTable("D", []catalog.Column{{Name: "K", Type: value.KindInt}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := rss.Insert(f, value.Row{value.NewInt(int64(i % 64)), value.NewInt(int64(i)), value.NewInt(int64(i % 64))}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
			t.Fatal(err)
		}
		if i < 64 {
			if _, err := rss.Insert(d, value.Row{value.NewInt(int64(i))}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ix := range [][2]string{{"F_K", "F"}, {"D_K", "D"}} {
		if _, err := e.cat.CreateIndex(ix[0], ix[1], []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
			t.Fatal(err)
		}
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
	return e
}

// TestSortFreesTempPages: a sort gives its temp pages back to the disk
// when it closes, and the next sort reuses them, so repeated sorts leave the
// disk where the first left it. Before sorts freed their pages, each run
// of this query grew it by its 92 temp pages: to 773 pages after five.
func TestSortFreesTempPages(t *testing.T) {
	e := loadJoin(t, 20000)
	_, q := e.plan(t, "SELECT G, COUNT(*), SUM(V) FROM F GROUP BY G", core.Config{})
	if findOp[*plan.Sort](mustBuild(t, e, q)) == nil {
		t.Fatalf("plan has no sort:\n%s", q.Explain())
	}
	var after []int
	for i := 0; i < 5; i++ {
		e.rt.IO = &storage.IOStats{}
		rows, _, err := RunQuery(e.rt, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 64 || e.rt.IO.Snapshot().PagesWritten == 0 {
			t.Fatalf("%d groups, %d temp pages written", len(rows), e.rt.IO.Snapshot().PagesWritten)
		}
		after = append(after, e.disk.NumPages())
	}
	for i, n := range after {
		if n != after[0] {
			t.Errorf("disk pages after each run: %v; run %d grew the disk", after, i+1)
			break
		}
	}
}

// TestScanOpsFitSizeClass: every scan allocates one scan operator, and
// each fits the 1 KB size class. A pointerful object over 512 bytes carries
// an 8-byte malloc header, so the limit is 1,016 bytes; one word more
// moves every scan to the 1,152-byte class. Every block allocates one
// Cursor, which embeds the block's blockCtx (with its string arena) and
// fits the 240-byte class (no header below 512 bytes); the blockCtx alone
// stays within the 144-byte class it filled when it was allocated apart.
// Every join allocates one join operator, each embedding a joiner and its
// value chunk: a nested loop fits the 112-byte class, and the merge and
// hash joins the 224-byte class (the merge join is 168 bytes).
func TestScanOpsFitSizeClass(t *testing.T) {
	for name, c := range map[string]struct{ size, limit uintptr }{
		"segScanOp":   {unsafe.Sizeof(segScanOp{}), 1024 - 8},
		"indexScanOp": {unsafe.Sizeof(indexScanOp{}), 1024 - 8},
		"blockCtx":    {unsafe.Sizeof(blockCtx{}), 144},
		"Cursor":      {unsafe.Sizeof(Cursor{}), 240},
		"nlJoinOp":    {unsafe.Sizeof(nlJoinOp{}), 112},
		"mergeJoinOp": {unsafe.Sizeof(mergeJoinOp{}), 224},
		"hashJoinOp":  {unsafe.Sizeof(hashJoinOp{}), 224},
	} {
		if c.size > c.limit {
			t.Errorf("%s is %d bytes, over its size class's %d", name, c.size, c.limit)
		}
	}
}
