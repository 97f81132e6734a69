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

// The batch memory contract: a producer allocates the rows it hands out and
// never writes them again, so a consumer may retain them. Scans decode every
// version into a stage they reuse and copy accepted rows out per batch; the
// sort reads runs back into shared chunks. These tests retain every row an
// operator returns, snapshot its values on receipt, and check after the
// operator is drained — later batches, and rejected versions decoded over
// the stage, included — that nothing retained changed.

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

// drainRetained drives o to completion, retaining every composite it
// returns and a deep copy taken on receipt, and fails if any retained row
// differs from its copy once o is drained and closed. It returns the rows.
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
		for i := 0; i < b.Len(); i++ {
			c := b.Row(i)
			cp := make(comp, len(c))
			for j, r := range c {
				if r != nil {
					cp[j] = r.Clone()
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

// TestRetainedRowsSurviveLaterBatches covers the retaining consumers: a
// nested-loop outer, a merge-join group read back from sorts, a hash build,
// and a sort's read-back rows — each over scans with every kind of
// rejection — and checks the query result against the reference evaluator.
func TestRetainedRowsSurviveLaterBatches(t *testing.T) {
	const join = "SELECT A.S, B.S, A.V FROM A, B WHERE A.K = B.K AND A.V >= 25 AND A.V <> A.K AND B.S <> 'b0'"
	cases := []struct {
		name  string
		query string
		cfg   core.Config
		find  func(*op) *op
	}{
		{"nested-loop outer", join, core.Config{Joins: core.NestedLoopsOnly}, findOp[*plan.NLJoin]},
		{"merge-join group", join, core.Config{Joins: core.MergeOnly}, findOp[*plan.MergeJoin]},
		{"hash build", join, core.Config{}, findOp[*plan.HashJoin]},
		{"sort read-back", "SELECT A.S, A.V FROM A WHERE A.V >= 25 AND A.V <> A.K ORDER BY A.S", core.Config{}, findOp[*plan.Sort]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			loadRetention(t, e)
			blk, q := e.plan(t, tc.query, tc.cfg)

			ctx := newBlockCtx(e.rt, q, new(int))
			root, err := ctx.buildRoot()
			if err != nil {
				t.Fatal(err)
			}
			target := tc.find(root)
			if target == nil {
				t.Fatalf("plan has no %s:\n%s", tc.name, q.Explain())
			}
			if got := drainRetained(t, target, 16); len(got) == 0 {
				t.Fatalf("%s returned no rows", tc.name)
			}

			rows, _, err := RunQuery(e.rt, q)
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

// TestScanRowsSurviveStageReuse drives the two scan operators directly: the
// rows of every batch must survive the batches after them, whose versions
// are decoded into the same stage — rejected ones included.
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
		_, q := e.plan(t, query, core.Config{})
		ctx := newBlockCtx(e.rt, q, new(int))
		root, err := ctx.buildRoot()
		if err != nil {
			t.Fatal(err)
		}
		scan := tc.find(root)
		if scan == nil {
			t.Fatalf("unexpected access path:\n%s", q.Explain())
		}
		got := drainRetained(t, scan, 16)
		rows, _, err := RunQuery(e.rt, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) || len(got) < 100 {
			t.Fatalf("%s: scan returned %d rows, query %d", query, len(got), len(rows))
		}
	}
}
