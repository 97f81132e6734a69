package exec

import (
	"fmt"
	"strings"
	"testing"

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

// The batch memory contract (batch.go): every operator lends its rows,
// which stay valid until its next NextBatch, Open or Close, and an operator
// that needs a row for longer copies it. These tests drain operators as
// their consumers do, copying each batch's rows when it arrives, and compare
// the copies with the reference evaluator; and they run the queries whose
// operators keep rows past their inputs' batches — a join's outer row,
// merge group and hash build, a grouping's representative — at batch sizes
// that turn those batches over mid-group, against the reference.

// loadRetention builds A(K, S, V) and B(K, S) in one shared segment, so a
// scan of either also rejects the other's records. VARCHAR values vary in
// length, and every seventh version of A is deleted by a committed
// transaction, so the scans meet relation, snapshot, SARG and residual
// rejections between the rows they accept.
func loadRetention(t *testing.T, e *env) {
	t.Helper()
	a, err := e.cat.CreateTable("A", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}, {Name: "V", Type: value.KindInt}}, "SEG")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.cat.CreateTable("B", []catalog.Column{
		{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}}, "SEG")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		row := value.Row{value.NewInt(int64(i % 40)), value.NewString(fmt.Sprintf("a%d%s", i, strings.Repeat("x", i%9))), value.NewInt(int64(i))}
		tid, err := rss.Insert(a, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := rss.MarkDeleted(a, tid, 2, e.disk); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			row := value.Row{value.NewInt(int64(i % 50)), value.NewString(fmt.Sprintf("b%d%s", i, strings.Repeat("y", i%5)))}
			if _, err := rss.Insert(b, row, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	// Transaction 2 (the deleter) committed before the snapshot: the deleted
	// versions are invisible to it, as they are to the reference evaluator.
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
	e.rt.BatchSize = 16
}

// plan compiles query under cfg, returning its analyzed block too.
func (e *env) plan(t *testing.T, query string, cfg core.Config) (*sem.Block, *plan.Query) {
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
	return blk, q
}

// findOp returns the first operator (preorder) whose plan node has type T.
func findOp[T plan.Node](o *op) *op {
	if _, ok := o.node.(T); ok {
		return o
	}
	for _, k := range o.kids {
		if f := findOp[T](k); f != nil {
			return f
		}
	}
	return nil
}

// testBlock readies q's top-level block the way a cursor does, without
// building or opening its tree.
func testBlock(e *env, q *plan.Query) *blockCtx {
	if e.rt.IO == nil {
		e.rt.IO = &storage.IOStats{}
	}
	return &blockCtx{rt: e.rt, q: q, params: make([]value.Value, q.NumParams), evals: new(int), subFetches: new(int64)}
}

// mustBuild builds q's operator tree.
func mustBuild(t *testing.T, e *env, q *plan.Query) *op {
	t.Helper()
	root, err := testBlock(e, q).buildRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// drainLent drives o to completion in batches of batchN rows and returns
// a copy of every row it lends, taken when the row's batch arrives — the
// row is valid until o's next NextBatch — with its string bytes, each
// row's filled slots back to back in relation order.
func drainLent(t *testing.T, o *op, batchN int) []value.Row {
	t.Helper()
	if err := o.Open(); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	b := NewBatch(batchN)
	for {
		if err := o.NextBatch(b); err != nil {
			o.Close()
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		for _, c := range b.rows {
			var row value.Row
			for _, r := range c {
				for _, v := range r {
					v.Str = strings.Clone(v.Str)
					row = append(row, v)
				}
			}
			rows = append(rows, row)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// reference returns the reference evaluator's rows for blk.
func reference(t *testing.T, e *env, blk *sem.Block) []value.Row {
	t.Helper()
	want, err := testutil.RunBlock(e.disk, blk)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// matchesReference runs q at each batch size and compares its rows with the
// reference evaluator's.
func matchesReference(t *testing.T, e *env, blk *sem.Block, q *plan.Query, sizes ...int) {
	t.Helper()
	want := reference(t, e, blk)
	defer func(n int) { e.rt.BatchSize = n }(e.rt.BatchSize)
	for _, n := range sizes {
		e.rt.BatchSize = n
		rows, _, err := RunQuery(e.rt, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.SameMultiset(rows, want) {
			t.Fatalf("batch size %d: result differs from the reference: %d rows, want %d\n%s", n, len(rows), len(want), q.Explain())
		}
	}
}

// TestRetainedRowsSurviveLaterBatches covers the operators that keep rows
// past their inputs' batches: a nested loop its current outer row, a merge
// join its group read back from a sort, a hash join its build, and a sort's
// read-back rows under a merge join — each over scans with every kind of
// rejection, the joins' output with residual rejections between the rows
// they keep. Each copies what it keeps, so the join's lent rows, copied as
// its batches of 16 arrive, match the reference evaluator, and so does the
// query at batch sizes 1, 3, 16 and 256. The sort's rows match its input's.
func TestRetainedRowsSurviveLaterBatches(t *testing.T) {
	const join = "SELECT A.K, A.S, A.V, B.K, B.S FROM A, B WHERE A.K = B.K AND A.V >= 25 AND A.V <> A.K AND B.S <> 'b0' AND A.V > B.K * 9"
	cases := []struct {
		name string
		cfg  core.Config
		find func(*op) *op
	}{
		{"nested-loop outer", core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin]},
		{"merge-join group", core.Config{Joins: core.MergeOnly}, findOp[*plan.MergeJoin]},
		{"hash build", core.Config{}, findOp[*plan.HashJoin]},
		{"sort read-back", core.Config{Joins: core.MergeOnly}, findOp[*plan.Sort]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			loadRetention(t, e)
			blk, q := e.plan(t, join, tc.cfg)
			o := tc.find(mustBuild(t, e, q))
			if o == nil {
				t.Fatalf("plan has no such operator:\n%s", q.Explain())
			}
			got, want := drainLent(t, o, 16), reference(t, e, blk)
			if _, ok := o.impl.(*sortOp); ok {
				want = drainLent(t, o.kids[0], 16)
			}
			if len(got) < 100 || !testutil.SameMultiset(got, want) {
				t.Fatalf("%s returned %d rows, want the %d of the reference\n%s", tc.name, len(got), len(want), q.Explain())
			}
			matchesReference(t, e, blk, q, 1, 3, 16, 256)
		})
	}
}

// TestRetainedStringsSurviveArenaTurnover: the scans carve every VARCHAR
// they decode from the block's string arena, whose chunks turn over every
// 4 KB — A's strings alone are over 5 KB — and whose carved bytes are never
// written again. So the operators that keep a VARCHAR column across batches
// — a hash build, duplicate elimination and a nested-loop outer — keep
// values whose strings survive everything decoded after them: their lent
// rows, copied with their string bytes as each batch arrives, match the
// reference evaluator at batch sizes 1, 3 and 256, and so do the queries.
func TestRetainedStringsSurviveArenaTurnover(t *testing.T) {
	const join = "SELECT A.K, A.S, A.V, B.K, B.S FROM A, B WHERE A.K = B.K AND A.V <> B.K"
	cases := []struct {
		name  string
		query string
		cfg   core.Config
		find  func(*op) *op
	}{
		{"hash build", join, core.Config{}, findOp[*plan.HashJoin]},
		{"distinct", "SELECT DISTINCT A.S, A.K FROM A WHERE A.V >= 10", core.Config{}, findOp[*plan.Distinct]},
		{"nested-loop outer", join, core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			loadRetention(t, e)
			blk, q := e.plan(t, tc.query, tc.cfg)
			want := reference(t, e, blk)
			for _, n := range []int{1, 3, 256} {
				e.rt.BatchSize = n
				o := tc.find(mustBuild(t, e, q))
				if o == nil {
					t.Fatalf("plan has no such operator:\n%s", q.Explain())
				}
				if got := drainLent(t, o, n); len(got) < 100 || !testutil.SameMultiset(got, want) {
					t.Fatalf("batch size %d: %s returned %d rows, want the %d of the reference", n, tc.name, len(got), len(want))
				}
			}
			matchesReference(t, e, blk, q, 1, 3, 256)
		})
	}
}

// TestScanRowsSurviveStageReuse: a scan hands out the rows of the stage it
// decodes every version into, rejected ones included, and reuses the stage
// for every batch. Copied as each batch of 16 arrives, its rows match the
// reference evaluator, and so does the query at batch sizes 1, 3 and 256.
func TestScanRowsSurviveStageReuse(t *testing.T) {
	e := newEnv(t)
	loadRetention(t, e)
	if _, err := e.cat.CreateIndex("A_K", "A", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	for _, tc := range []struct {
		query string
		find  func(*op) *op
	}{
		{"SELECT A.K, A.S, A.V FROM A WHERE A.V >= 25 AND A.V <> A.K", findOp[*plan.SegScan]},
		{"SELECT A.K, A.S, A.V FROM A WHERE A.K BETWEEN 3 AND 30 AND A.V >= 25 AND A.V <> A.K", findOp[*plan.IndexScan]},
	} {
		blk, q := e.plan(t, tc.query, core.Config{})
		root := mustBuild(t, e, q)
		scan := tc.find(root)
		if scan == nil || scan != root.kids[0] {
			t.Fatalf("unexpected access path:\n%s", q.Explain())
		}
		got, want := drainLent(t, scan, 16), reference(t, e, blk)
		if len(got) < 100 || !testutil.SameMultiset(got, want) {
			t.Fatalf("%s: the scan returned %d rows, want the %d of the reference", tc.query, len(got), len(want))
		}
		matchesReference(t, e, blk, q, 1, 3, 256)
	}
}

// TestSortLendsItsRows: a sort lends its read-back rows, copied into chunks
// it reuses for every batch, and the queries over one — an ORDER BY on the
// VARCHAR A.S, and a GROUP BY whose representatives the grouping copies out
// of the sort's batches — match the reference evaluator at batch sizes 1, 3
// and 256; so do a one-row and an empty ORDER BY.
func TestSortLendsItsRows(t *testing.T) {
	e := newEnv(t)
	loadRetention(t, e)
	for _, tc := range []struct {
		query string
		rows  int // the sort's rows, or -1 for many
	}{
		{"SELECT A.S, A.V FROM A WHERE A.V >= 25 AND A.V <> A.K ORDER BY A.S", -1},
		{"SELECT A.K, COUNT(*), MAX(A.S), SUM(A.V) FROM A WHERE A.V <> A.K GROUP BY A.K HAVING MIN(A.S) <> 'a1'", -1},
		{"SELECT A.S, A.K FROM A WHERE A.V = 30 ORDER BY A.K", 1},
		{"SELECT A.S FROM A WHERE A.V = 3 ORDER BY A.S", 0},
	} {
		blk, q := e.plan(t, tc.query, core.Config{})
		root := mustBuild(t, e, q)
		if _, ok := root.kids[0].impl.(*sortOp); !ok {
			t.Fatalf("%s: the root's input is no sort:\n%s", tc.query, q.Explain())
		}
		n := len(drainLent(t, root.kids[0], 16))
		if tc.rows >= 0 && n != tc.rows || tc.rows < 0 && n < 100 {
			t.Fatalf("%s: the sort returned %d rows", tc.query, n)
		}
		matchesReference(t, e, blk, q, 1, 3, 256)
	}
}

// loadGroups builds G(S, V, K) with a clustered index on the VARCHAR S,
// loaded in S order: 23 groups of some 26 versions each, of varying lengths,
// with every seventh version deleted by a committed transaction.
func loadGroups(t *testing.T, e *env) {
	t.Helper()
	g, err := e.cat.CreateTable("G", []catalog.Column{
		{Name: "S", Type: value.KindString}, {Name: "V", Type: value.KindInt}, {Name: "K", Type: value.KindInt}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		grp := i * 23 / 600
		row := value.Row{value.NewString(fmt.Sprintf("g%02d%s", grp, strings.Repeat("z", grp%5))), value.NewInt(int64(i)), value.NewInt(int64(i % 9))}
		tid, err := rss.Insert(g, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := rss.MarkDeleted(g, tid, 2, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.cat.CreateIndex("G_S", "G", []string{"S"}, false, true, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
}

// TestGroupByOverLendingScan: grouping directly over an ordered index scan,
// which lends its stage, copies each group's representative, which it keeps
// across the batches the group spans. Its VARCHAR group column, output and compared at
// every group boundary and filtered by HAVING, must match the reference
// evaluator at batch sizes 1, 3 and 256; a representative left in the
// stage is overwritten by the next batch.
func TestGroupByOverLendingScan(t *testing.T) {
	e := newEnv(t)
	loadGroups(t, e)
	for _, query := range []string{
		"SELECT G.S, COUNT(*), SUM(G.V), MIN(G.V) FROM G WHERE G.K <> 4 GROUP BY G.S HAVING G.S <> 'g05'",
		"SELECT G.S, MAX(G.V) FROM G WHERE G.V > 40 AND G.V < 560 GROUP BY G.S HAVING G.S > 'g03' AND COUNT(*) > 3",
	} {
		blk, q := e.plan(t, query, core.Config{})
		root := mustBuild(t, e, q)
		if _, ok := root.node.(*plan.GroupAgg); !ok || len(root.kids) != 1 {
			t.Fatalf("plan does not group at its root:\n%s", q.Explain())
		}
		if _, ok := root.kids[0].node.(*plan.IndexScan); !ok {
			t.Fatalf("grouping is not directly over an index scan:\n%s", q.Explain())
		}
		if len(drainLent(t, root.kids[0], 3)) == 0 {
			t.Fatal("the scan returned no rows")
		}
		matchesReference(t, e, blk, q, 1, 3, 256)
	}
}

// TestJoinLendsItsRows: a join lends its output, and a nested loop's inner
// lends its rows to the join, which copies the inner values of the rows it
// keeps. For each join method under a projection, an aggregation and a
// sort, the query matches the reference evaluator at batch sizes 1, 3 and
// 256. The residual rejects candidates between the kept ones, the nested
// loop's inner B carries the VARCHAR B.S, and its probes return some 12
// rows each, so inner batches cross the join's batch boundaries: a kept row
// left pointing into the inner's batch is overwritten by a later probe.
func TestJoinLendsItsRows(t *testing.T) {
	e := newEnv(t)
	loadRetention(t, e)
	if _, err := e.cat.CreateIndex("B_K", "B", []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
	const where = " FROM A, B WHERE A.K = B.K AND A.V <> B.K * 7 AND B.S <> 'b10'"
	for _, parent := range []struct {
		name, query string
		is          func(plan.Node) bool
	}{
		{"project", "SELECT A.S, B.S, A.V" + where, isNode[*plan.Project]},
		{"aggregation", "SELECT COUNT(*), MAX(B.S), MIN(A.S), SUM(A.V)" + where, isNode[*plan.GroupAgg]},
		{"sort", "SELECT A.S, B.S, A.V" + where + " ORDER BY B.S, A.V", isNode[*plan.Sort]},
	} {
		for _, join := range []struct {
			name string
			cfg  core.Config
			find func(*op) *op
		}{
			{"nested loops", core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin]},
			{"merge", core.Config{Joins: core.MergeOnly}, findOp[*plan.MergeJoin]},
			{"hash", core.Config{}, findOp[*plan.HashJoin]},
		} {
			t.Run(join.name+" under "+parent.name, func(t *testing.T) {
				blk, q := e.plan(t, parent.query, join.cfg)
				root := mustBuild(t, e, q)
				j := join.find(root)
				if p := parentOf(root, j); j == nil || p == nil || !parent.is(p.node) {
					t.Fatalf("the %s join is not the direct input of a %s:\n%s", join.name, parent.name, q.Explain())
				}
				if n := len(drainLent(t, j, 3)); n < 1000 {
					t.Fatalf("the join returned %d rows", n)
				}
				matchesReference(t, e, blk, q, 1, 3, 256)
			})
		}
	}
}

// isNode reports whether n has type T.
func isNode[T plan.Node](n plan.Node) bool {
	_, ok := n.(T)
	return ok
}

// parentOf returns the operator whose child is o, or nil.
func parentOf(root, o *op) *op {
	for _, k := range root.kids {
		if k == o {
			return root
		}
		if p := parentOf(k, o); p != nil {
			return p
		}
	}
	return nil
}

// loadStacked builds X(K, S, V), Y(K, S) and Z(K, S, V) with VARCHAR S
// values of varying lengths, and an index on each K. X has 150 rows over 15
// keys, Y 60 over 20, Z 45 over 15, so every join key matches a handful of
// rows and the test query joins all three into 723.
func loadStacked(t *testing.T, e *env) {
	t.Helper()
	for _, tab := range []struct {
		name string
		rows int
		keys int
		cols []catalog.Column
	}{
		{"X", 150, 15, []catalog.Column{{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}, {Name: "V", Type: value.KindInt}}},
		{"Y", 60, 20, []catalog.Column{{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}}},
		{"Z", 45, 15, []catalog.Column{{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}, {Name: "V", Type: value.KindInt}}},
	} {
		tb, err := e.cat.CreateTable(tab.name, tab.cols, "")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.rows; i++ {
			s := fmt.Sprintf("%s%d%s", strings.ToLower(tab.name), i, strings.Repeat("s", i%11))
			row := value.Row{value.NewInt(int64(i % tab.keys)), value.NewString(s), value.NewInt(int64(i))}[:len(tab.cols)]
			if _, err := rss.Insert(tb, row, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.cat.CreateIndex(tab.name+"_K", tab.name, []string{"K"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
			t.Fatal(err)
		}
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
}

// TestStackedJoinsCopyWhatTheyKeep: a join's output, lent batch by batch,
// feeds each consumer that keeps rows past a batch. A join of X and Y by
// each method, in X.K order, is joined with Z as the outer of each join
// method, as a merge join's inner and as a hash join's build; and, sorted
// on the VARCHAR Y.S, as a nested loop's outer. The optimizer plans only
// left-deep trees, so the plans are built by hand. Each matches the
// reference evaluator at batch sizes 1, 3, 16 and 256, run whole and
// through a cursor. A join that left a kept row pointing into its outer's batch, or a
// hash build into its input's, would hand out rows a later batch overwrote.
func TestStackedJoinsCopyWhatTheyKeep(t *testing.T) {
	e := newEnv(t)
	loadStacked(t, e)
	blk, _ := e.plan(t, "SELECT X.K, X.S, X.V, Y.S, Z.S, Z.V FROM X, Y, Z WHERE X.K = Y.K AND X.K = Z.K AND X.V <> Y.K * 11 AND Z.V * 3 < X.V", core.Config{})
	want := reference(t, e, blk)
	if len(want) < 500 {
		t.Fatalf("the reference returns %d rows", len(want))
	}
	f := blk.Factors
	for i, text := range []string{"(X.K = Y.K)", "(X.K = Z.K)", "(X.V <> (Y.K * 11))", "((Z.V * 3) < X.V)"} {
		if got := f[i].String(); got != text {
			t.Fatalf("factor %d is %s, want %s", i, got, text)
		}
	}
	xk, yk, zk := sem.ColumnID{Rel: 0}, sem.ColumnID{Rel: 1}, sem.ColumnID{Rel: 2}
	params := blk.NumParams
	scan := func(rel int) plan.Node {
		r := blk.Rels[rel]
		return &plan.SegScan{Table: r.Table, RelIdx: rel, RelName: r.Name}
	}
	sorted := func(n plan.Node, col sem.ColumnID) plan.Node {
		return &plan.Sort{Input: n, Keys: []sem.OrderKey{{Col: col}}}
	}
	// nested joins outer with rel's rows whose K is the outer's col, through
	// an index probe re-opened per outer row.
	nested := func(outer plan.Node, col sem.ColumnID, rel int, residual sem.Expr) plan.Node {
		r, p := blk.Rels[rel], params
		params++
		key := []sem.Bound{{Kind: sem.BoundParam, Param: p}}
		probe := &plan.IndexScan{Index: r.Table.Indexes[0], RelIdx: rel, RelName: r.Name, Lo: key, LoInc: true, Hi: key, HiInc: true}
		return &plan.NLJoin{Outer: outer, Inner: probe, Binds: []plan.ParamBind{{Param: p, From: col}}, Residual: []sem.Expr{residual}}
	}
	merge := func(outer, inner plan.Node, oc, ic sem.ColumnID, residual sem.Expr) plan.Node {
		return &plan.MergeJoin{Outer: outer, Inner: inner, OuterCol: oc, InnerCol: ic, Residual: []sem.Expr{residual}}
	}
	hash := func(outer, inner plan.Node, oc, ic sem.ColumnID, residual sem.Expr) plan.Node {
		return &plan.HashJoin{Outer: outer, Inner: inner, OuterCol: oc, InnerCol: ic, Residual: []sem.Expr{residual}, BuildRows: 100}
	}
	// Each lower join of X and Y keeps the X.K order of its sorted outer.
	lower := []struct {
		name string
		mk   func() plan.Node
	}{
		{"nested loops", func() plan.Node { return nested(sorted(scan(0), xk), xk, 1, f[2].Expr) }},
		{"merge", func() plan.Node { return merge(sorted(scan(0), xk), sorted(scan(1), yk), xk, yk, f[2].Expr) }},
		{"hash", func() plan.Node { return hash(sorted(scan(0), xk), scan(1), xk, yk, f[2].Expr) }},
	}
	upper := []struct {
		name string
		mk   func(j plan.Node) plan.Node
	}{
		{"nested-loop outer", func(j plan.Node) plan.Node { return nested(j, xk, 2, f[3].Expr) }},
		{"merge outer", func(j plan.Node) plan.Node { return merge(j, sorted(scan(2), zk), xk, zk, f[3].Expr) }},
		{"hash probe", func(j plan.Node) plan.Node { return hash(j, scan(2), xk, zk, f[3].Expr) }},
		{"merge inner", func(j plan.Node) plan.Node { return merge(sorted(scan(2), zk), j, zk, xk, f[3].Expr) }},
		{"hash build", func(j plan.Node) plan.Node { return hash(scan(2), j, zk, xk, f[3].Expr) }},
		{"sort input", func(j plan.Node) plan.Node { return nested(sorted(j, sem.ColumnID{Rel: 1, Col: 1}), xk, 2, f[3].Expr) }},
	}
	for _, lo := range lower {
		for _, up := range upper {
			t.Run(lo.name+" as "+up.name, func(t *testing.T) {
				params = blk.NumParams
				root := &plan.Project{Input: up.mk(lo.mk()), Exprs: blk.Select, OutNames: blk.SelectNames}
				q := &plan.Query{Block: blk, Root: root, NumParams: params, OutNames: blk.SelectNames}
				matchesReference(t, e, blk, q, 1, 3, 16, 256)
				for _, n := range []int{1, 3, 16, 256} {
					e.rt.BatchSize = n
					c, err := OpenQuery(e.rt, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					var rows []value.Row
					for {
						row, ok, err := c.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						rows = append(rows, row)
					}
					if !testutil.SameMultiset(rows, want) {
						t.Fatalf("cursor at batch size %d: %d rows, want the %d of the reference\n%s", n, len(rows), len(want), q.Explain())
					}
				}
			})
		}
	}
}
