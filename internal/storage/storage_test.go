package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"systemr/internal/value"
)

func TestPageInsertAndRead(t *testing.T) {
	var p Page
	p.InitPage()
	s0, err := p.Insert(7, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Insert(9, []byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	rec, rel, ok := p.Record(s0)
	if !ok || rel != 7 || !bytes.Equal(rec, []byte("hello")) {
		t.Fatalf("slot 0: %q rel=%d ok=%v", rec, rel, ok)
	}
	rec, rel, ok = p.Record(s1)
	if !ok || rel != 9 || !bytes.Equal(rec, []byte("world!")) {
		t.Fatalf("slot 1: %q rel=%d ok=%v", rec, rel, ok)
	}
	if _, _, ok := p.Record(99); ok {
		t.Fatal("out-of-range slot must not exist")
	}
}

func TestPageDelete(t *testing.T) {
	var p Page
	p.InitPage()
	s, _ := p.Insert(1, []byte("x"))
	if !p.Delete(s) {
		t.Fatal("delete failed")
	}
	if p.Delete(s) {
		t.Fatal("double delete must fail")
	}
	if _, _, ok := p.Record(s); ok {
		t.Fatal("deleted slot must not read")
	}
	if p.LiveRecords() != 0 {
		t.Fatal("no live records expected")
	}
	if p.HasRecordsFor(1) {
		t.Fatal("relation should have no records")
	}
}

// TestPageRestore: Delete only zeroes the slot length, so Restore must bring
// back the byte-exact page image — the property the transaction undo log
// relies on for crash-consistency byte equality.
func TestPageRestore(t *testing.T) {
	var p Page
	p.InitPage()
	s0, _ := p.Insert(1, []byte("first"))
	s1, _ := p.Insert(2, []byte("second"))
	pristine := p.Data
	if !p.Delete(s0) {
		t.Fatal("delete failed")
	}
	if p.Restore(s1, 2, []byte("second")) {
		t.Fatal("restore of a live slot must fail")
	}
	if p.Restore(s0, 1, []byte("first+grew")) {
		t.Fatal("restore overrunning the original footprint must fail")
	}
	if !p.Restore(s0, 1, []byte("first")) {
		t.Fatal("restore of the deleted slot failed")
	}
	if p.Data != pristine {
		t.Fatal("restored page image differs from the pre-delete image")
	}
	rec, rel, ok := p.Record(s0)
	if !ok || rel != 1 || !bytes.Equal(rec, []byte("first")) {
		t.Fatalf("restored slot reads %q rel=%d ok=%v", rec, rel, ok)
	}
	if p.Restore(99, 1, []byte("x")) {
		t.Fatal("restore of a nonexistent slot must fail")
	}
}

func TestPageFillsUp(t *testing.T) {
	var p Page
	p.InitPage()
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.Insert(1, rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	// 4096-byte page, 100-byte records + 8-byte slots → ~37 fit.
	if n < 30 || n > 40 {
		t.Fatalf("unexpected capacity %d", n)
	}
	if p.FreeSpace() >= 108 {
		t.Fatal("page reported full but has space")
	}
}

func TestPageRejectsHugeRecord(t *testing.T) {
	var p Page
	p.InitPage()
	if _, err := p.Insert(1, make([]byte, PageSize)); err != ErrRecordTooLarge {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
}

// randomRow builds arbitrary rows for codec round-trip checks.
type randomRow struct{ Row value.Row }

func (randomRow) Generate(rnd *rand.Rand, _ int) reflect.Value {
	n := rnd.Intn(8)
	row := make(value.Row, n)
	for i := range row {
		switch rnd.Intn(4) {
		case 0:
			row[i] = value.Null()
		case 1:
			row[i] = value.NewInt(rnd.Int63() - (1 << 62))
		case 2:
			row[i] = value.NewFloat(rnd.NormFloat64() * 1e6)
		default:
			b := make([]byte, rnd.Intn(40))
			rnd.Read(b)
			row[i] = value.NewString(string(b))
		}
	}
	return reflect.ValueOf(randomRow{Row: row})
}

func TestRowCodecRoundTrip(t *testing.T) {
	prop := func(rr randomRow) bool {
		enc := EncodeRow(rr.Row)
		dec, err := DecodeRow(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(rr.Row) {
			return false
		}
		for i := range dec {
			if dec[i].Kind != rr.Row[i].Kind || value.Compare(dec[i], rr.Row[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowCorruption(t *testing.T) {
	enc := EncodeRow(value.Row{value.NewInt(5), value.NewString("abc")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeRow(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	if _, err := DecodeRow(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage must fail")
	}
}

func TestBufferPoolLRUAndStats(t *testing.T) {
	disk := NewDisk()
	stats := &IOStats{}
	pool := NewBufferPool(disk, 2, stats)
	ids := make([]PageID, 3)
	for i := range ids {
		ids[i], _ = disk.AllocPage()
	}

	pool.Get(ids[0]) // miss
	pool.Get(ids[1]) // miss
	pool.Get(ids[0]) // hit
	pool.Get(ids[2]) // miss, evicts ids[1] (LRU)
	pool.Get(ids[1]) // miss again
	s := stats.Snapshot()
	if s.PageFetches != 4 {
		t.Fatalf("want 4 fetches, got %d", s.PageFetches)
	}
	if s.LogicalReads != 5 {
		t.Fatalf("want 5 logical reads, got %d", s.LogicalReads)
	}
}

func TestBufferPoolFlushAndEvict(t *testing.T) {
	disk := NewDisk()
	stats := &IOStats{}
	pool := NewBufferPool(disk, 4, stats)
	id, _ := disk.AllocPage()
	pool.Get(id)
	if !pool.Resident(id) {
		t.Fatal("page should be resident")
	}
	pool.Evict(id)
	if pool.Resident(id) {
		t.Fatal("page should be evicted")
	}
	pool.Get(id)
	pool.Flush()
	if pool.Resident(id) {
		t.Fatal("flush should empty the pool")
	}
	if got := stats.Snapshot().PageFetches; got != 2 {
		t.Fatalf("want 2 fetches after flush cycle, got %d", got)
	}
}

func TestMarkWrittenIsWriteThrough(t *testing.T) {
	disk := NewDisk()
	stats := &IOStats{}
	pool := NewBufferPool(disk, 4, stats)
	id, _ := disk.AllocPage()
	pool.MarkWritten(id)
	if pool.Resident(id) {
		t.Fatal("written page must not become resident")
	}
	s := stats.Snapshot()
	if s.PagesWritten != 1 || s.PageFetches != 0 {
		t.Fatalf("write accounting wrong: %+v", s)
	}
	if s.Cost(0) != 1 {
		t.Fatalf("writes must count in cost, got %v", s.Cost(0))
	}
}

func TestSegmentStatistics(t *testing.T) {
	disk := NewDisk()
	seg := NewSegment(0, disk)
	big := make([]byte, 1000)
	// Relation 1: 8 records of ~1008 bytes each (record + slot), 4 per 4K
	// page → 2 pages.
	for i := 0; i < 8; i++ {
		if _, err := seg.Insert(1, big); err != nil {
			t.Fatal(err)
		}
	}
	seg.InterleaveBreak()
	// Relation 2: lands on fresh pages after the break.
	for i := 0; i < 4; i++ {
		if _, err := seg.Insert(2, big); err != nil {
			t.Fatal(err)
		}
	}
	t1 := seg.PagesHolding(1)
	t2 := seg.PagesHolding(2)
	ne := seg.NonEmptyPages()
	if t1 != 2 || t2 != 1 {
		t.Fatalf("TCARD: rel1=%d rel2=%d", t1, t2)
	}
	if ne != t1+t2 {
		t.Fatalf("non-empty pages %d != %d", ne, t1+t2)
	}
}

func TestSegmentSharedPage(t *testing.T) {
	disk := NewDisk()
	seg := NewSegment(0, disk)
	// Without InterleaveBreak, two relations alternate and share pages.
	small := make([]byte, 10)
	tidA, _ := seg.Insert(1, small)
	tidB, _ := seg.Insert(2, small)
	if tidA.Page != tidB.Page {
		t.Fatal("small records of two relations should share the first page")
	}
	if seg.PagesHolding(1) != 1 || seg.PagesHolding(2) != 1 || seg.NonEmptyPages() != 1 {
		t.Fatal("shared-page accounting wrong")
	}
}

func TestTIDOrdering(t *testing.T) {
	a := TID{Page: 1, Slot: 5}
	b := TID{Page: 1, Slot: 6}
	c := TID{Page: 2, Slot: 0}
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(a) < 0 {
		t.Fatal("TID order broken")
	}
	if a.String() != "1.5" {
		t.Fatalf("TID string: %s", a.String())
	}
}

func TestDiskVirtualPages(t *testing.T) {
	disk := NewDisk()
	id := disk.AllocVirtual()
	stats := &IOStats{}
	pool := NewBufferPool(disk, 2, stats)
	pool.Touch(id)
	pool.Touch(id)
	s := stats.Snapshot()
	if s.PageFetches != 1 || s.LogicalReads != 2 {
		t.Fatalf("virtual page accounting: %+v", s)
	}
	if disk.NumPages() != 1 {
		t.Fatalf("NumPages = %d", disk.NumPages())
	}
}

// TestVisitVersions: a page visit hands the visitor the live versions of
// its slot window in order, with their relation, header and encoded row;
// passes over deleted slots and slots past the directory; stops after the
// slot the visitor ends it on; and fails on a record too short for its
// header.
func TestVisitVersions(t *testing.T) {
	var p Page
	p.InitPage()
	for i := 0; i < 5; i++ {
		rec := EncodeVersionedRow(VersionHeader{Xmin: XID(i + 1), Prev: NoPrevTID}, value.Row{value.NewInt(int64(i))})
		if _, err := p.Insert(RelID(i%2), rec); err != nil {
			t.Fatal(err)
		}
	}
	p.Delete(2)
	var seen []uint16
	stopAt := uint16(99)
	v := VisitFunc(func(slot uint16, rel RelID, h VersionHeader, body []byte) (bool, error) {
		row, err := DecodeRow(body)
		if err != nil || rel != RelID(slot%2) || h.Xmin != XID(slot+1) || row[0].Int != int64(slot) {
			t.Fatalf("slot %d: rel %d, header %+v, row %v, err %v", slot, rel, h, row, err)
		}
		seen = append(seen, slot)
		return slot == stopAt, nil
	})
	next, err := p.VisitVersions(1, 100, v)
	if err != nil || next != 5 || !reflect.DeepEqual(seen, []uint16{1, 3, 4}) {
		t.Fatalf("visit [1, 100): next %d, err %v, slots %v", next, err, seen)
	}
	seen, stopAt = nil, 3
	if next, err = p.VisitVersions(0, 5, v); err != nil || next != 4 || !reflect.DeepEqual(seen, []uint16{0, 1, 3}) {
		t.Fatalf("visit ending on slot 3: next %d, err %v, slots %v", next, err, seen)
	}
	if _, err := p.Insert(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err = p.VisitVersions(5, 6, v); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("visit of a headerless record: err %v, want ErrCorruptRecord", err)
	}
}

// TestDiskFreePageReuse: AllocPage hands out a freed page, emptied, before
// it grows the disk; a virtual page cannot be freed.
func TestDiskFreePageReuse(t *testing.T) {
	disk := NewDisk()
	a, pa := disk.AllocPage()
	if _, err := pa.Insert(1, []byte("temp")); err != nil {
		t.Fatal(err)
	}
	disk.AllocVirtual()
	disk.FreePage(a)
	b, pb := disk.AllocPage()
	if b != a || pb != pa || pb.NumSlots() != 0 || pb.FreeSpace() != MaxRecordSize {
		t.Fatalf("re-allocated page %d (freed %d): %d slots, %d bytes free", b, a, pb.NumSlots(), pb.FreeSpace())
	}
	if c, _ := disk.AllocPage(); c != 2 || disk.NumPages() != 3 {
		t.Fatalf("next page %d, disk of %d pages", c, disk.NumPages())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a virtual page did not fail")
		}
	}()
	disk.FreePage(1)
}

// pageOp drives the slotted page against a map oracle with random
// insert/delete sequences (testing/quick-style randomized property test).
func TestPageRandomOpsAgainstOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		var p Page
		p.InitPage()
		oracle := map[uint16][]byte{} // live slots
		var slots []uint16
		for op := 0; op < 300; op++ {
			if rnd.Intn(3) != 0 || len(slots) == 0 {
				rec := make([]byte, 1+rnd.Intn(60))
				rnd.Read(rec)
				rel := RelID(1 + rnd.Intn(3))
				slot, err := p.Insert(rel, rec)
				if err == ErrPageFull {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				oracle[slot] = append([]byte(nil), rec...)
				slots = append(slots, slot)
			} else {
				i := rnd.Intn(len(slots))
				slot := slots[i]
				_, wasLive := oracle[slot]
				if p.Delete(slot) != wasLive {
					t.Fatalf("delete(%d) disagreed with oracle", slot)
				}
				delete(oracle, slot)
			}
		}
		live := 0
		for s := uint16(0); s < p.NumSlots(); s++ {
			rec, _, ok := p.Record(s)
			want, liveInOracle := oracle[s]
			if ok != liveInOracle {
				t.Fatalf("slot %d liveness: page %v oracle %v", s, ok, liveInOracle)
			}
			if ok {
				live++
				if !bytes.Equal(rec, want) {
					t.Fatalf("slot %d content mismatch", s)
				}
			}
		}
		if live != len(oracle) || live != p.LiveRecords() {
			t.Fatalf("live count: %d vs oracle %d vs LiveRecords %d", live, len(oracle), p.LiveRecords())
		}
	}
}
