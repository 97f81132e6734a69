package exec

import (
	"fmt"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// hasNode reports whether q or any block nested in it plans a node of type
// T.
func hasNode[T plan.Node](q *plan.Query) bool {
	var walk func(n plan.Node) bool
	walk = func(n plan.Node) bool {
		if _, ok := n.(T); ok {
			return true
		}
		for _, k := range n.Children() {
			if walk(k) {
				return true
			}
		}
		return false
	}
	if walk(q.Root) {
		return true
	}
	for _, sp := range q.Subs {
		if hasNode[T](sp.Query) {
			return true
		}
	}
	return false
}

// loadC adds C(K, S), 60 rows with every K below 30 twice, beside
// loadRetention's A and B: a small inner for the joins in subquery blocks.
func loadC(t *testing.T, e *env) {
	t.Helper()
	c, err := e.cat.CreateTable("C", []catalog.Column{{Name: "K", Type: value.KindInt}, {Name: "S", Type: value.KindString}}, "SEG")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		row := value.Row{value.NewInt(int64(i % 30)), value.NewString(fmt.Sprintf("c%d", i%7))}
		if _, err := rss.Insert(c, row, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
			t.Fatal(err)
		}
	}
	e.cat.UpdateStatistics("", testutil.HeapRows(e.cat.Disk()))
}

// TestSubqueryBlocksReopen: a subquery block's tree is built once per run
// and re-opened per evaluation, so every operator must start afresh at
// each Open — a grouping's state, duplicate elimination's seen set, each
// join method's inner or build, a merge join's sorts — under the new
// correlation values. Correlated scalar and IN subqueries holding each of
// them, and one nested in another, are evaluated once per outer row of
// their changing correlation values; their statements, run to the end and
// stepped through a cursor at batch sizes 1, 3 and 256, match the reference
// evaluator, which evaluates every subquery afresh.
func TestSubqueryBlocksReopen(t *testing.T) {
	// Each row carries its own count, and both join inputs' rows depend on
	// the correlation values, so a join that kept an inner group, a build or
	// a sorted run from the last evaluation miscounts.
	const joinCount = "SELECT A.V, (SELECT COUNT(*) FROM B X, C Y " +
		"WHERE X.K = Y.K AND X.K < A.K / 2 AND Y.K > A.V / 8) FROM A WHERE A.V < 40"
	cases := []struct {
		name  string
		query string
		cfg   core.Config
		has   func(*plan.Query) bool
	}{
		{"group by", "SELECT A.K, A.V FROM A WHERE A.V < 150 AND A.K IN " +
			"(SELECT B.K FROM B WHERE B.K <= A.V / 8 GROUP BY B.K HAVING COUNT(*) > 5)",
			core.Config{}, hasNode[*plan.GroupAgg]},
		{"distinct", "SELECT A.K, A.S FROM A WHERE A.V < 150 AND A.K IN " +
			"(SELECT DISTINCT B.K FROM B WHERE B.K < A.V / 4 AND B.S <> A.S)",
			core.Config{}, hasNode[*plan.Distinct]},
		{"nested loop", joinCount, core.Config{Joins: core.NestedLoopsOnly}, hasNode[*plan.NLJoin]},
		{"merge join over sorts", joinCount, core.Config{Joins: core.MergeOnly}, func(q *plan.Query) bool {
			return hasNode[*plan.MergeJoin](q) && hasNode[*plan.Sort](q.Subs[0].Query)
		}},
		{"hash join", joinCount, core.Config{}, hasNode[*plan.HashJoin]},
		{"nested correlated", "SELECT A.K, A.V FROM A WHERE A.V < 16 AND A.V / 3 < " +
			"(SELECT COUNT(*) FROM B WHERE B.K < A.K AND B.K IN " +
			"(SELECT X.K FROM B X WHERE X.K <= A.V AND X.S <> B.S AND X.K < 20))",
			core.Config{}, func(q *plan.Query) bool {
				return len(q.Subs) == 1 && len(q.Subs[0].Query.Subs) == 1 && q.Subs[0].Query.Subs[0].Sub.Correlated
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			loadRetention(t, e)
			loadC(t, e)
			blk, q := e.plan(t, tc.query, tc.cfg)
			if !tc.has(q) || !q.Subs[0].Sub.Correlated {
				t.Fatalf("plan lacks the operator under test:\n%s", q.Explain())
			}
			want := reference(t, e, blk)
			if len(want) < 10 {
				t.Fatalf("the reference returns %d rows: too few to tell evaluations apart", len(want))
			}
			for _, n := range []int{1, 3, 256} {
				e.rt.BatchSize = n
				rows, stats, err := RunQuery(e.rt, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.SubqueryEvals < 10 {
					t.Fatalf("%d subquery evaluations: too few to re-open the block", stats.SubqueryEvals)
				}
				if !testutil.SameMultiset(rows, want) {
					t.Fatalf("batch size %d: RunQuery returns %d rows, want the %d of the reference\n%s", n, len(rows), len(want), q.Explain())
				}
				c, err := OpenQuery(e.rt, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				var stepped []value.Row
				for {
					row, ok, err := c.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					stepped = append(stepped, row)
				}
				if !testutil.SameMultiset(stepped, want) {
					t.Fatalf("batch size %d: the cursor returns %d rows, want the %d of the reference\n%s", n, len(stepped), len(want), q.Explain())
				}
			}
		})
	}
}
