package plan

import (
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/sem"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

func testTable(t *testing.T) *catalog.Table {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	tab, err := cat.CreateTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("T_A", "T", []string{"A"}, true, true, testutil.HeapRows(cat.Disk())); err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Pages: 10, RSI: 100}
	b := Cost{Pages: 2, RSI: 30}
	sum := a.Add(b)
	if sum.Pages != 12 || sum.RSI != 130 {
		t.Fatalf("Add: %+v", sum)
	}
	scaled := b.Scale(3)
	if scaled.Pages != 6 || scaled.RSI != 90 {
		t.Fatalf("Scale: %+v", scaled)
	}
	if got := a.Total(0.033); got != 10+0.033*100 {
		t.Fatalf("Total: %v", got)
	}
	if !strings.Contains(a.String(), "pages=10.0") {
		t.Fatalf("String: %s", a.String())
	}
}

func TestScanLabels(t *testing.T) {
	tab := testTable(t)
	seg := &SegScan{
		Table: tab, RelIdx: 0, RelName: "X",
		Sargs: []sem.SargDNF{{{sem.SargTerm{
			Col: sem.ColumnID{Rel: 0, Col: 0}, Op: value.OpEq,
			Val: sem.Bound{Kind: sem.BoundConst, Val: value.NewInt(5)},
		}}}},
	}
	label := seg.Label()
	for _, frag := range []string{"SEGSCAN X", "(T)", "sarg:", "c0 = 5"} {
		if !strings.Contains(label, frag) {
			t.Fatalf("segment label %q lacks %q", label, frag)
		}
	}

	ix := tab.Indexes[0]
	scan := &IndexScan{
		Index: ix, RelIdx: 0, RelName: "T",
		Lo:    []sem.Bound{{Kind: sem.BoundConst, Val: value.NewInt(3)}},
		LoInc: false,
		Hi:    []sem.Bound{{Kind: sem.BoundParam, Param: 2}},
		HiInc: true,
	}
	label = scan.Label()
	for _, frag := range []string{"CLUSTERED-INDEXSCAN", "T_A(A)", "3 (excl)", "$2"} {
		if !strings.Contains(label, frag) {
			t.Fatalf("index label %q lacks %q", label, frag)
		}
	}
	// Unbounded sides render as infinities.
	open := &IndexScan{Index: ix, Lo: []sem.Bound{{Kind: sem.BoundConst, Val: value.NewInt(1)}}, LoInc: true}
	if !strings.Contains(open.Label(), "+inf") {
		t.Fatalf("open range label: %s", open.Label())
	}
}

func TestJoinAndWrapperLabels(t *testing.T) {
	tab := testTable(t)
	seg := &SegScan{Table: tab, RelIdx: 0, RelName: "T"}
	nl := &NLJoin{
		Outer: seg, Inner: seg,
		Binds: []ParamBind{{Param: 4, From: sem.ColumnID{Rel: 0, Col: 1}}},
	}
	if !strings.Contains(nl.Label(), "$4=outer[0.1]") {
		t.Fatalf("nl label: %s", nl.Label())
	}
	if len(nl.Children()) != 2 {
		t.Fatal("nl children")
	}

	mj := &MergeJoin{Outer: seg, Inner: seg,
		OuterCol: sem.ColumnID{Rel: 0, Col: 0}, InnerCol: sem.ColumnID{Rel: 1, Col: 2}}
	if !strings.Contains(mj.Label(), "outer[0.0] = inner[1.2]") {
		t.Fatalf("mj label: %s", mj.Label())
	}

	srt := &Sort{Input: seg, Keys: []sem.OrderKey{{Col: sem.ColumnID{Rel: 0, Col: 0}, Desc: true}}}
	if !strings.Contains(srt.Label(), "DESC") {
		t.Fatalf("sort label: %s", srt.Label())
	}

	ga := &GroupAgg{Input: seg, GroupCols: []sem.ColumnID{{Rel: 0, Col: 0}},
		Aggs: []*sem.Agg{{Name: "COUNT", Star: true}}}
	if !strings.Contains(ga.Label(), "COUNT(*)") {
		t.Fatalf("group label: %s", ga.Label())
	}

	pr := &Project{Input: seg, Exprs: []sem.Expr{&sem.Const{Val: value.NewInt(1)}}}
	if !strings.Contains(pr.Label(), "PROJECT 1") {
		t.Fatalf("project label: %s", pr.Label())
	}
	d := &Distinct{Input: pr}
	if d.Label() != "DISTINCT" || len(d.Children()) != 1 {
		t.Fatal("distinct node")
	}
}

func TestExplainTreeShape(t *testing.T) {
	tab := testTable(t)
	seg := &SegScan{Table: tab, RelIdx: 0, RelName: "T"}
	seg.SetEst(Estimate{Cost: Cost{Pages: 3, RSI: 9}, Rows: 9})
	pr := &Project{Input: seg, Exprs: []sem.Expr{&sem.Const{Val: value.NewInt(1)}}}
	pr.SetEst(Estimate{Cost: Cost{Pages: 3, RSI: 9}, Rows: 9})

	blk := &sem.Block{}
	sub := &sem.Subquery{ID: 1, Correlated: true, Block: blk}
	subQ := &Query{Block: blk, Root: pr}
	q := &Query{
		Block: blk,
		Root:  pr,
		Subs:  []*SubPlan{{Sub: sub, Query: subQ}},
	}
	out := q.Explain()
	if !strings.Contains(out, "QUERY BLOCK (main)") ||
		!strings.Contains(out, "QUERY BLOCK (correlated subquery #1)") {
		t.Fatalf("explain blocks:\n%s", out)
	}
	// Indentation: the scan is one level below the projection.
	lines := strings.Split(out, "\n")
	var projLine, scanLine string
	for _, l := range lines {
		if strings.Contains(l, "PROJECT") && projLine == "" {
			projLine = l
		}
		if strings.Contains(l, "SEGSCAN") && scanLine == "" {
			scanLine = l
		}
	}
	if indent(scanLine) <= indent(projLine) {
		t.Fatalf("scan not indented under project:\n%s", out)
	}
	if !strings.Contains(out, "rows=9.0") || !strings.Contains(out, "pages=3.0") {
		t.Fatalf("estimates missing:\n%s", out)
	}
}

func indent(s string) int {
	return len(s) - len(strings.TrimLeft(s, " "))
}
