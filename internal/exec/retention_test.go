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

// The batch memory contract: a batch's rows are owned or borrowed. A
// producer of owned rows allocates them and never writes them again, so a
// consumer may retain them: scans and sorts that do not lend copy their rows
// out, per batch, of the stage or the run reader's row. These tests retain
// every row such an operator returns, snapshot its values on receipt, and
// check after the operator is drained — later batches, and rejected
// versions decoded over the stage, included — that nothing retained
// changed. A scan or a sort under a projection, aggregation or sort lends
// its rows instead; for those, the tests check that the batches say
// borrowed and that the consumer's result matches the reference evaluator
// at every batch size.

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
		tid, _, err := rss.Insert(a, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
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
			if _, _, err := rss.Insert(b, row, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.cat.UpdateStatistics()
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

// mustBuild builds q's operator tree.
func mustBuild(t *testing.T, e *env, q *plan.Query) *op {
	t.Helper()
	root, err := newBlockCtx(e.rt, q, new(int)).buildRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// buildOwned builds q's operator tree and returns the operator find picks,
// built again as it is where it owns its rows: driven directly, as it is
// under a join.
func buildOwned(t *testing.T, e *env, q *plan.Query, find func(*op) *op) *op {
	t.Helper()
	ctx := newBlockCtx(e.rt, q, new(int))
	root, err := ctx.buildRoot()
	if err != nil {
		t.Fatal(err)
	}
	target := find(root)
	if target == nil {
		t.Fatalf("plan has no such operator:\n%s", q.Explain())
	}
	owned, err := ctx.build(target.node)
	if err != nil {
		t.Fatal(err)
	}
	return owned
}

// drainRetained drives o to completion, retaining every composite it
// returns and a deep copy, string bytes included, taken on receipt, and fails if a batch is
// borrowed or if any retained row differs from its copy once o is drained
// and closed. It returns the rows.
func drainRetained(t *testing.T, o *op, batchN int) []comp {
	t.Helper()
	var kept, copies []comp
	if err := o.Open(); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(batchN)
	for {
		if err := o.NextBatch(b); err != nil {
			o.Close()
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		if b.borrowed {
			o.Close()
			t.Fatalf("%T lends its rows; only owned rows may be retained", o.impl)
		}
		for i := 0; i < b.Len(); i++ {
			c := b.Row(i)
			cp := make(comp, len(c))
			for j, r := range c {
				if r != nil {
					// Copy the string bytes too: a string arena that
					// rewrote them would change the copy with the row.
					cp[j] = r.Clone()
					for k := range cp[j] {
						cp[j][k].Str = strings.Clone(cp[j][k].Str)
					}
				}
			}
			kept = append(kept, c)
			copies = append(copies, cp)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		for j := range kept[i] {
			if len(kept[i][j]) != len(copies[i][j]) {
				t.Fatalf("retained row %d slot %d changed width: %v, was %v", i, j, kept[i][j], copies[i][j])
			}
			for k := range kept[i][j] {
				if kept[i][j][k] != copies[i][j][k] {
					t.Fatalf("retained row %d slot %d changed after later batches: %v, was %v", i, j, kept[i][j], copies[i][j])
				}
			}
		}
	}
	return kept
}

// drainBorrowed drives o to completion and fails unless every batch it
// fills says its rows are borrowed. It returns the number of rows.
func drainBorrowed(t *testing.T, o *op, batchN int) int {
	t.Helper()
	if err := o.Open(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	b := NewBatch(batchN)
	n := 0
	for {
		if err := o.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			return n
		}
		if !b.borrowed {
			t.Fatalf("%T returned owned rows; it should lend them", o.impl)
		}
		n += b.Len()
	}
}

// matchesReference runs q at each batch size and compares its rows with the
// reference evaluator's.
func matchesReference(t *testing.T, e *env, blk *sem.Block, q *plan.Query, sizes ...int) {
	t.Helper()
	want, err := testutil.RunBlock(e.disk, blk)
	if err != nil {
		t.Fatal(err)
	}
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

// TestRetainedRowsSurviveLaterBatches covers the retaining consumers: a
// nested-loop outer, a merge-join group read back from sorts, a hash build,
// and the read-back rows of a sort under a merge join, which owns them —
// each over scans with every kind of rejection, the joins' output with
// residual rejections between the rows they keep — and checks the query
// result against the reference evaluator. Under the query's projection a
// join lends its output (see TestJoinLendsItsRows), so each operator is
// drained as built where it owns its rows: driven directly, as it is under
// a join. The nested loop's kept rows then hold copies of the inner's
// values, which its lending inner overwrites batch after batch.
func TestRetainedRowsSurviveLaterBatches(t *testing.T) {
	const join = "SELECT A.S, B.S, A.V FROM A, B WHERE A.K = B.K AND A.V >= 25 AND A.V <> A.K AND B.S <> 'b0' AND A.V > B.K * 9"
	cases := []struct {
		name  string
		query string
		cfg   core.Config
		find  func(*op) *op
	}{
		{"nested-loop outer", join, core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin]},
		{"merge-join group", join, core.Config{Joins: core.MergeOnly}, findOp[*plan.MergeJoin]},
		{"hash build", join, core.Config{}, findOp[*plan.HashJoin]},
		{"sort read-back", join, core.Config{Joins: core.MergeOnly}, findOp[*plan.Sort]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			loadRetention(t, e)
			blk, q := e.plan(t, tc.query, tc.cfg)
			if got := drainRetained(t, buildOwned(t, e, q, tc.find), 16); len(got) == 0 {
				t.Fatalf("%s returned no rows", tc.name)
			}

			rows, _, err := RunQuery(e.rt, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := testutil.RunBlock(e.disk, blk)
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.SameMultiset(rows, want) {
				t.Fatalf("result differs from the reference: %d rows, want %d\n%s", len(rows), len(want), q.Explain())
			}
		})
	}
}

// TestRetainedStringsSurviveArenaTurnover: the scans carve every VARCHAR
// they decode from the block's string arena, whose chunks turn over every
// 4 KB — A's strings alone are over 5 KB — and whose carved bytes are never
// written again. So the consumers that keep a VARCHAR column across batches
// — a hash build, duplicate elimination and a nested-loop outer — hand out
// rows whose strings survive everything decoded after them, at batch sizes
// 1, 3 and 256, and the queries match the reference evaluator at each. The
// joins are drained as built where they own their rows, as in
// TestRetainedRowsSurviveLaterBatches.
func TestRetainedStringsSurviveArenaTurnover(t *testing.T) {
	const join = "SELECT A.S, B.S FROM A, B WHERE A.K = B.K AND A.V <> B.K"
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
			for _, n := range []int{1, 3, 256} {
				e.rt.BatchSize = n
				if got := drainRetained(t, buildOwned(t, e, q, tc.find), n); len(got) < 100 {
					t.Fatalf("batch size %d: %s returned %d rows", n, tc.name, len(got))
				}
			}
			matchesReference(t, e, blk, q, 1, 3, 256)
		})
	}
}

// TestScanRowsSurviveStageReuse: a scan that owns its rows — one under a
// join, or one driven directly — hands out rows that survive the batches
// after them, whose versions are decoded into the same stage, rejected ones
// included. The same scans under a projection lend their stage: every batch
// says borrowed, and the query matches the reference evaluator at batch
// sizes 1, 3 and 256.
func TestScanRowsSurviveStageReuse(t *testing.T) {
	e := newEnv(t)
	loadRetention(t, e)
	if _, err := e.cat.CreateIndex("A_K", "A", []string{"K"}, false, false); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics()
	for _, tc := range []struct {
		query string
		find  func(*op) *op
	}{
		{"SELECT A.S FROM A WHERE A.V >= 25 AND A.V <> A.K", findOp[*plan.SegScan]},
		{"SELECT A.S FROM A WHERE A.K BETWEEN 3 AND 30 AND A.V >= 25 AND A.V <> A.K", findOp[*plan.IndexScan]},
	} {
		query := tc.query
		blk, q := e.plan(t, query, core.Config{})
		ctx := newBlockCtx(e.rt, q, new(int))
		root, err := ctx.buildRoot()
		if err != nil {
			t.Fatal(err)
		}
		lent := tc.find(root)
		if lent == nil || lent != root.kids[0] {
			t.Fatalf("unexpected access path:\n%s", q.Explain())
		}
		rows, _, err := RunQuery(e.rt, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := drainBorrowed(t, lent, 16); n != len(rows) {
			t.Fatalf("%s: lending scan returned %d rows, query %d", query, n, len(rows))
		}
		matchesReference(t, e, blk, q, 1, 3, 256)

		// Driven directly, the same scan node owns its rows.
		owned, err := ctx.build(lent.node)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainRetained(t, owned, 16); len(got) != len(rows) || len(got) < 100 {
			t.Fatalf("%s: scan returned %d rows, query %d", query, len(got), len(rows))
		}
	}

	// Under a join: the nested loop's outer scan owns its rows.
	_, q := e.plan(t, "SELECT A.S, B.S FROM A, B WHERE A.K = B.K AND A.V >= 25 AND A.V <> A.K", core.Config{Joins: core.NestedLoopsOnly})
	join := findOp[*plan.NLJoin](mustBuild(t, e, q))
	if join == nil {
		t.Fatalf("plan has no nested loops:\n%s", q.Explain())
	}
	if got := drainRetained(t, join.kids[0], 16); len(got) < 100 {
		t.Fatalf("the join's outer scan returned %d rows", len(got))
	}
}

// TestSortLendsItsRows: a sort built as the direct input of a projection
// or an aggregation lends its read-back rows, copied into a value chunk it
// reuses for every batch. Every batch says borrowed, and the query — an
// ORDER BY on the VARCHAR A.S, and a GROUP BY whose representatives the
// grouping copies out of the borrowed batches — matches the reference
// evaluator at batch sizes 1, 3 and 256; so do a one-row and an empty
// ORDER BY.
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
		n := drainBorrowed(t, root.kids[0], 16)
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
		tid, _, err := rss.Insert(g, row, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := rss.MarkDeleted(g, tid, 2, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.cat.CreateIndex("G_S", "G", []string{"S"}, false, true); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics()
	e.rt.Snap = &storage.Snapshot{Self: 10, Max: 10}
}

// TestGroupByOverLendingScan: grouping directly over an ordered index scan,
// which lends its stage, keeps each group's representative across the
// batches the group spans. Its VARCHAR group column, output and compared at
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
		if drainBorrowed(t, root.kids[0], 3) == 0 {
			t.Fatal("the scan returned no rows")
		}
		matchesReference(t, e, blk, q, 1, 3, 256)
	}
}

// TestJoinLendsItsRows: a join built as the direct input of a projection,
// an aggregation or a sort lends its output, and a nested loop's inner
// lends its rows to the join, which copies the inner values of the rows it
// keeps. For each join method under each of the three, every batch the
// join fills says borrowed, and the query matches the reference evaluator
// at batch sizes 1, 3 and 256. The residual rejects candidates between the
// kept ones, the nested loop's inner B carries the VARCHAR B.S, and its
// probes return some 12 rows each, so inner batches cross the join's batch
// boundaries: a kept row left pointing into the inner's batch is
// overwritten by a later probe.
func TestJoinLendsItsRows(t *testing.T) {
	e := newEnv(t)
	loadRetention(t, e)
	if _, err := e.cat.CreateIndex("B_K", "B", []string{"K"}, false, false); err != nil {
		t.Fatal(err)
	}
	e.cat.UpdateStatistics()
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
				if n := drainBorrowed(t, j, 3); n < 1000 {
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
