package rss

import (
	"errors"
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

type env struct {
	disk  *storage.Disk
	stats *storage.IOStats
	pool  *storage.BufferPool
	cat   *catalog.Catalog
}

func newEnv(t *testing.T, bufferPages int) *env {
	t.Helper()
	disk := storage.NewDisk()
	stats := &storage.IOStats{}
	return &env{
		disk:  disk,
		stats: stats,
		pool:  storage.NewBufferPool(disk, bufferPages, stats),
		cat:   catalog.New(disk),
	}
}

// newEmp creates EMP(DNO INT, SAL INT, NAME STR) with n rows: DNO = i%10,
// SAL = i, NAME = "E<i>".
func (e *env) newEmp(t *testing.T, n int) *catalog.Table {
	t.Helper()
	tab, err := e.cat.CreateTable("EMP", []catalog.Column{
		{Name: "DNO", Type: value.KindInt},
		{Name: "SAL", Type: value.KindInt},
		{Name: "NAME", Type: value.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := Insert(tab, value.Row{
			value.NewInt(int64(i % 10)),
			value.NewInt(int64(i)),
			value.NewString("E" + strings.Repeat("x", i%5)),
		}, storage.FrozenXID, storage.NoPrevTID, e.disk)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func drainScan(t *testing.T, s Scan) []value.Row {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []value.Row
	for {
		row, _, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

func TestSegmentScanAll(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 100)
	rows := drainScan(t, &SegmentScan{Table: tab, Pool: e.pool})
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	if e.stats.Snapshot().RSICalls != 100 {
		t.Fatalf("RSI calls = %d", e.stats.Snapshot().RSICalls)
	}
}

func TestSegmentScanSargsFilterWithoutRSICalls(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 100)
	sargs := SargSet{{Disjuncts: [][]SargTerm{{{Col: 0, Op: value.OpEq, Val: value.NewInt(3)}}}}}
	rows := drainScan(t, &SegmentScan{Table: tab, Pool: e.pool, Sargs: sargs})
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The SARG-rejected tuples must not cost RSI calls — the paper's point.
	if got := e.stats.Snapshot().RSICalls; got != 10 {
		t.Fatalf("RSI calls = %d, want 10", got)
	}
}

func TestSargDNFSemantics(t *testing.T) {
	row := value.Row{value.NewInt(5), value.NewInt(50)}
	eq5 := SargTerm{Col: 0, Op: value.OpEq, Val: value.NewInt(5)}
	lt10 := SargTerm{Col: 1, Op: value.OpLt, Val: value.NewInt(10)}
	gt40 := SargTerm{Col: 1, Op: value.OpGt, Val: value.NewInt(40)}

	s := Sarg{Disjuncts: [][]SargTerm{{eq5, lt10}, {eq5, gt40}}}
	if !s.Match(row) {
		t.Fatal("second disjunct should match")
	}
	s = Sarg{Disjuncts: [][]SargTerm{{eq5, lt10}}}
	if s.Match(row) {
		t.Fatal("conjunct with failing term must not match")
	}
	if !(Sarg{}).Match(row) {
		t.Fatal("empty sarg is always true")
	}
	set := SargSet{
		{Disjuncts: [][]SargTerm{{eq5}}},
		{Disjuncts: [][]SargTerm{{gt40}}},
	}
	if !set.Match(row) {
		t.Fatal("conjunction of matching DNFs must match")
	}
	set = append(set, Sarg{Disjuncts: [][]SargTerm{{lt10}}})
	if set.Match(row) {
		t.Fatal("one failing DNF fails the set")
	}
	if (SargTerm{Col: 9, Op: value.OpEq, Val: value.NewInt(1)}).Match(row) {
		t.Fatal("out-of-range column must not match")
	}
}

// TestSargOnEncodedRows: the scans evaluate SARGs on the stored record,
// reading single columns, and must agree with SargSet.Match on the decoded
// row for every comparison operator, an int column against a float
// literal and a float column against an int one, VARCHAR, NULL on either
// side, a column past the row's width, and a two-disjunct DNF.
func TestSargOnEncodedRows(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(5), value.NewFloat(2.5), value.NewString("abc"), value.Null()},
		{value.NewInt(-3), value.NewFloat(5), value.NewString(""), value.NewInt(7)},
		{value.Null(), value.Null(), value.Null()},
	}
	lits := []value.Value{
		value.NewInt(5), value.NewInt(-3), value.NewFloat(5), value.NewFloat(2.5),
		value.NewString("abc"), value.NewString("abd"), value.NewString(""), value.Null(),
	}
	var sets []SargSet
	for col := -1; col <= 4; col++ {
		for op := value.OpEq; op <= value.OpGe; op++ {
			for _, lit := range lits {
				sets = append(sets, SargSet{{Disjuncts: [][]SargTerm{{{Col: col, Op: op, Val: lit}}}}})
			}
		}
	}
	eq5 := SargTerm{Col: 0, Op: value.OpEq, Val: value.NewInt(5)}
	sLt := SargTerm{Col: 2, Op: value.OpLt, Val: value.NewString("abd")}
	fGe := SargTerm{Col: 1, Op: value.OpGe, Val: value.NewInt(3)}
	past := SargTerm{Col: 3, Op: value.OpNe, Val: value.NewInt(0)}
	sets = append(sets,
		SargSet{{Disjuncts: [][]SargTerm{{eq5, sLt}, {fGe}}}},
		SargSet{{Disjuncts: [][]SargTerm{{eq5, past}, {fGe, past}}}},
		SargSet{{Disjuncts: [][]SargTerm{{eq5}}}, {Disjuncts: [][]SargTerm{{sLt}, {past}}}},
		SargSet{{}},
		nil,
	)
	matched := 0
	for _, row := range rows {
		body := storage.EncodeRow(row)
		for _, set := range sets {
			got, err := set.matchEncoded(body)
			if err != nil {
				t.Fatalf("%v on %v: %v", set, row, err)
			}
			if want := set.Match(row); got != want {
				t.Errorf("%v on %v: encoded %v, decoded %v", set, row, got, want)
			}
			if got {
				matched++
			}
		}
	}
	if matched == 0 || matched == len(rows)*len(sets) {
		t.Fatalf("%d of %d cases match: the table tests nothing", matched, len(rows)*len(sets))
	}
}

// TestCorruptSargColumnFailsScan: a record corrupted in place under a SARG
// column fails the scan that reads it with ErrCorruptRecord, through either
// access path; it is never skipped as a SARG reject.
func TestCorruptSargColumnFailsScan(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 20)
	if _, err := e.cat.CreateIndex("EMP_DNO", "EMP", []string{"DNO"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_DNO")
	// Overwrite the kind tag of version 7's SAL column: its body is the
	// column count and DNO, then SAL.
	pid := tab.Segment.Pages()[0]
	rec, _, ok := e.disk.Page(pid).Record(7)
	if !ok {
		t.Fatal("no version in slot 7")
	}
	_, body, err := storage.ParseVersionHeader(rec)
	if err != nil {
		t.Fatal(err)
	}
	body[len(storage.EncodeRow(value.Row{value.NewInt(7)}))] = 0xFF
	sargs := SargSet{{Disjuncts: [][]SargTerm{{{Col: 1, Op: value.OpGt, Val: value.NewInt(100)}}}}}
	for _, s := range []Scan{
		&SegmentScan{Table: tab, Pool: e.pool, Sargs: sargs},
		&IndexScan{Index: ix, Pool: e.pool, Sargs: sargs},
	} {
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		var err error
		for ok := true; ok && err == nil; {
			_, _, ok, err = s.Next()
		}
		s.Close()
		if !errors.Is(err, storage.ErrCorruptRecord) {
			t.Errorf("%T over a corrupt SAL: err = %v, want ErrCorruptRecord", s, err)
		}
	}
}

func TestIndexScanRange(t *testing.T) {
	e := newEnv(t, 16)
	e.newEmp(t, 100)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_SAL")

	scan := &IndexScan{
		Index: ix, Pool: e.pool,
		Lo: []value.Value{value.NewInt(10)}, LoInc: true,
		Hi: []value.Value{value.NewInt(19)}, HiInc: true,
	}
	rows := drainScan(t, scan)
	if len(rows) != 10 {
		t.Fatalf("closed range: %d rows", len(rows))
	}
	for i, r := range rows {
		if r[1].Int != int64(10+i) {
			t.Fatalf("row %d out of key order: %v", i, r)
		}
	}

	scan = &IndexScan{
		Index: ix, Pool: e.pool,
		Lo: []value.Value{value.NewInt(10)}, LoInc: false,
		Hi: []value.Value{value.NewInt(19)}, HiInc: false,
	}
	if rows := drainScan(t, scan); len(rows) != 8 {
		t.Fatalf("open range: %d rows", len(rows))
	}

	scan = &IndexScan{Index: ix, Pool: e.pool, Hi: []value.Value{value.NewInt(4)}, HiInc: true}
	if rows := drainScan(t, scan); len(rows) != 5 {
		t.Fatalf("unbounded low: %d rows", len(rows))
	}

	scan = &IndexScan{Index: ix, Pool: e.pool, Lo: []value.Value{value.NewInt(95)}, LoInc: true}
	if rows := drainScan(t, scan); len(rows) != 5 {
		t.Fatalf("unbounded high: %d rows", len(rows))
	}
}

func TestIndexScanDuplicatesAndSargs(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 100)
	if _, err := e.cat.CreateIndex("EMP_DNO", "EMP", []string{"DNO"}, false, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_DNO")
	scan := &IndexScan{
		Index: ix, Pool: e.pool,
		Lo: []value.Value{value.NewInt(3)}, LoInc: true,
		Hi: []value.Value{value.NewInt(3)}, HiInc: true,
		Sargs: SargSet{{Disjuncts: [][]SargTerm{{{Col: 1, Op: value.OpGe, Val: value.NewInt(50)}}}}},
	}
	rows := drainScan(t, scan)
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r[0].Int != 3 || r[1].Int < 50 {
			t.Fatalf("bad row %v", r)
		}
	}
	_ = tab
}

func TestIndexScanSkipsDeleted(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 20)
	e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk()))
	ix, _ := e.cat.Index("EMP_SAL")

	// Delete the tuple with SAL=5 via a scan (stale index entries must be
	// skipped even before index maintenance runs... here we also maintain).
	scan := &SegmentScan{Table: tab, Pool: e.pool}
	scan.Open()
	for {
		row, tid, ok, _ := scan.Next()
		if !ok {
			break
		}
		if row[1].Int == 5 {
			if err := MarkDeleted(tab, tid, 1, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan.Close()
	rows := drainScan(t, &IndexScan{Index: ix, Pool: e.pool})
	if len(rows) != 19 {
		t.Fatalf("got %d rows after delete", len(rows))
	}
	for _, r := range rows {
		if r[1].Int == 5 {
			t.Fatal("deleted tuple returned")
		}
	}
}

func TestInsertValidation(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 1)
	if _, err := Insert(tab, value.Row{value.NewInt(1)}, storage.FrozenXID, storage.NoPrevTID, e.disk); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := Insert(tab, value.Row{value.NewString("x"), value.NewInt(1), value.NewString("n")}, storage.FrozenXID, storage.NoPrevTID, e.disk); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Int widens into float columns.
	tab2, _ := e.cat.CreateTable("F", []catalog.Column{{Name: "X", Type: value.KindFloat}}, "")
	if _, err := Insert(tab2, value.Row{value.NewInt(3)}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
		t.Fatal(err)
	}
	rows := drainScan(t, &SegmentScan{Table: tab2, Pool: e.pool})
	if rows[0][0].Kind != value.KindFloat || rows[0][0].Float != 3 {
		t.Fatalf("widening failed: %v", rows[0])
	}
	// NULLs store into any column.
	if _, err := Insert(tab2, value.Row{value.Null()}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 10)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(tab, value.Row{value.NewInt(0), value.NewInt(5), value.NewString("dup")}, storage.FrozenXID, storage.NoPrevTID, e.disk); err == nil {
		t.Fatal("unique violation must fail")
	}
	// A distinct key still inserts and maintains the index.
	if _, err := Insert(tab, value.Row{value.NewInt(0), value.NewInt(999), value.NewString("new")}, storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_SAL")
	if ix.Tree.Len() != 11 {
		t.Fatalf("index has %d entries", ix.Tree.Len())
	}
}

// TestClearDeletedUndoesMark: ClearDeleted brings a delete-marked version
// back at its original TID, visible to both scan types again. MVCC deletes
// leave index entries in place (visibility filters them out).
func TestClearDeletedUndoesMark(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 10)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_SAL")
	tid, err := Insert(tab, value.Row{value.NewInt(3), value.NewInt(500), value.NewString("victim")}, storage.FrozenXID, storage.NoPrevTID, e.disk)
	if err != nil {
		t.Fatal(err)
	}
	const xid = 7
	if err := MarkDeleted(tab, tid, xid, e.disk); err != nil {
		t.Fatal(err)
	}
	// The index entry stays; scans skip the dead version.
	if ix.Tree.Len() != 11 {
		t.Fatalf("index has %d entries after delete mark, want 11", ix.Tree.Len())
	}
	if rows := drainScan(t, &IndexScan{Index: ix, Pool: e.pool}); len(rows) != 10 {
		t.Fatalf("index scan sees %d rows after delete mark, want 10", len(rows))
	}
	if err := MarkDeleted(tab, tid, xid, e.disk); err == nil {
		t.Fatal("re-marking by the same txn must fail")
	}
	if err := MarkDeleted(tab, tid, 9, e.disk); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("marking an already-deleted version = %v, want write conflict", err)
	}
	if err := ClearDeleted(tab, tid, xid, e.disk); err != nil {
		t.Fatal(err)
	}
	if err := ClearDeleted(tab, tid, xid, e.disk); err == nil {
		t.Fatal("clearing a live version must fail")
	}
	if rows := drainScan(t, &IndexScan{Index: ix, Pool: e.pool}); len(rows) != 11 {
		t.Fatalf("index scan sees %d rows after clear, want 11", len(rows))
	}
	h, got, rel, ok, err := e.disk.Page(tid.Page).ReadVersioned(tid.Slot)
	if err != nil || !ok || rel != tab.ID {
		t.Fatalf("restored version unreadable: ok=%v rel=%d err=%v", ok, rel, err)
	}
	if h.Xmax != 0 {
		t.Fatalf("xmax = %d after clear, want 0", h.Xmax)
	}
	if len(got) != 3 || got[1].Int != 500 || got[2].Str != "victim" {
		t.Fatalf("restored row = %v", got)
	}
}

// TestRemoveReclaimsVersion: Remove physically deletes a version and its
// index entries — the undo path for an aborted insert, and vacuum's tool.
func TestRemoveReclaimsVersion(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 10)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_SAL")
	row := value.Row{value.NewInt(3), value.NewInt(500), value.NewString("victim")}
	tid, err := Insert(tab, row, 7, storage.NoPrevTID, e.disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := Remove(tab, tid, row, e.disk); err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 10 {
		t.Fatalf("index has %d entries after remove, want 10", ix.Tree.Len())
	}
	if _, _, _, ok, _ := e.disk.Page(tid.Page).ReadVersioned(tid.Slot); ok {
		t.Fatal("removed version still readable")
	}
	if err := Remove(tab, tid, row, e.disk); err == nil {
		t.Fatal("double remove must fail")
	}
}

// TestVacuumTableReclaimsDeadVersions: versions whose deleter committed
// before the horizon are physically reclaimed; live and recently-dead
// versions survive.
func TestVacuumTableReclaimsDeadVersions(t *testing.T) {
	e := newEnv(t, 16)
	tab := e.newEmp(t, 10)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk())); err != nil {
		t.Fatal(err)
	}
	ix, _ := e.cat.Index("EMP_SAL")

	// Mark SAL=3 deleted by txn 5 (old) and SAL=4 deleted by txn 9 (recent).
	scan := &SegmentScan{Table: tab, Pool: e.pool}
	scan.Open()
	for {
		row, tid, ok, _ := scan.Next()
		if !ok {
			break
		}
		switch row[1].Int {
		case 3:
			if err := MarkDeleted(tab, tid, 5, e.disk); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := MarkDeleted(tab, tid, 9, e.disk); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan.Close()

	var chains int
	reclaimed, err := VacuumTable(tab, e.disk, 8, func(int) { chains++ })
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 1 {
		t.Fatalf("reclaimed %d versions, want 1 (only xmax=5 < horizon 8)", reclaimed)
	}
	if chains != 8 {
		t.Fatalf("observed %d live chains, want 8", chains)
	}
	// The reclaimed version's index entry is gone; the recent one's remains.
	if ix.Tree.Len() != 9 {
		t.Fatalf("index has %d entries after vacuum, want 9", ix.Tree.Len())
	}
	if rows := drainScan(t, &SegmentScan{Table: tab, Pool: e.pool}); len(rows) != 8 {
		t.Fatalf("scan sees %d rows, want 8", len(rows))
	}
}

func TestSegmentScanTouchesEveryPageOnce(t *testing.T) {
	e := newEnv(t, 1000)
	tab := e.newEmp(t, 2000)
	e.stats.Reset()
	e.pool.Flush()
	drainScan(t, &SegmentScan{Table: tab, Pool: e.pool})
	s := e.stats.Snapshot()
	want := int64(tab.Segment.NumPages())
	if s.PageFetches != want {
		t.Fatalf("segment scan fetched %d pages, segment has %d", s.PageFetches, want)
	}
}

func TestClosedScanErrors(t *testing.T) {
	e := newEnv(t, 4)
	tab := e.newEmp(t, 5)
	s := &SegmentScan{Table: tab, Pool: e.pool}
	if _, _, _, err := s.Next(); err == nil {
		t.Fatal("Next before Open must error")
	}
	e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.cat.Disk()))
	ix, _ := e.cat.Index("EMP_SAL")
	is := &IndexScan{Index: ix, Pool: e.pool}
	if _, _, _, err := is.Next(); err == nil {
		t.Fatal("index Next before Open must error")
	}
}

func TestSargAnd(t *testing.T) {
	eq := SargTerm{Col: 0, Op: value.OpEq, Val: value.NewInt(1)}
	gt := SargTerm{Col: 1, Op: value.OpGt, Val: value.NewInt(5)}
	s := Sarg{}.And(eq)
	if len(s.Disjuncts) != 1 || len(s.Disjuncts[0]) != 1 {
		t.Fatalf("And on empty: %+v", s)
	}
	two := Sarg{Disjuncts: [][]SargTerm{{eq}, {gt}}}
	conj := two.And(gt)
	if len(conj.Disjuncts) != 2 || len(conj.Disjuncts[0]) != 2 || len(conj.Disjuncts[1]) != 2 {
		t.Fatalf("And distributes into every disjunct: %+v", conj)
	}
	row := value.Row{value.NewInt(1), value.NewInt(9)}
	if !conj.Match(row) {
		t.Fatal("conjunction should match")
	}
	if (SargTerm{Col: 0, Op: value.OpEq, Val: value.NewInt(1)}).String() == "" {
		t.Fatal("term renders")
	}
}
