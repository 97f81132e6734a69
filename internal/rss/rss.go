// Package rss implements the tuple-oriented Research Storage Interface of
// Section 3: OPEN/NEXT/CLOSE scans over stored relations. Two scan types
// exist, exactly as in the paper —
//
//   - segment scans, which touch every non-empty page of the relation's
//     segment once and return the tuples belonging to the requested relation;
//   - index scans, which walk B-tree leaf pages between optional starting and
//     stopping key values and fetch the matching data tuples in key order.
//
// Both scan types accept search arguments (SARGs): a boolean expression of
// sargable predicates ("column comparison-operator value") in disjunctive
// normal form, applied to each tuple *before* it is returned, so that
// rejected tuples never cost an RSI call — the paper's CPU-saving mechanism.
//
// The RSI is also the MVCC visibility boundary. Heap records are versions
// (storage.VersionHeader + row); both scan types carry the caller's
// storage.Snapshot and return only versions visible to it, so nothing above
// the RSS ever sees an uncommitted or superseded tuple. The write path
// creates versions (Insert), flips delete marks in place (MarkDeleted, with
// first-updater-wins conflict detection → ErrWriteConflict), physically
// undoes them (ClearDeleted, Remove — the transaction layer's rollback
// primitives), and garbage-collects versions no live snapshot can reach
// (VacuumTable).
package rss

import (
	"errors"
	"fmt"
	"sync/atomic"

	"systemr/internal/btree"
	"systemr/internal/catalog"
	"systemr/internal/governor"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// openScans counts currently open RSI scans engine-wide. Leak checks assert
// it returns to zero after every statement, including error and panic paths.
var openScans atomic.Int64

// OpenScans returns the number of RSI scans currently open.
func OpenScans() int64 { return openScans.Load() }

// ErrWriteConflict reports a first-updater-wins conflict: the tuple a
// transaction tried to delete or update already carries another
// transaction's delete mark. Because writers hold exclusive table locks,
// that other transaction has necessarily committed — the row version this
// statement's snapshot saw is stale. Retryable, like lock.ErrDeadlock: roll
// the transaction back and run it again against a fresh snapshot.
var ErrWriteConflict = errors.New("rss: write conflict: tuple concurrently updated or deleted")

// SargTerm is one sargable predicate: column <op> value.
type SargTerm struct {
	Col int
	Op  value.CmpOp
	Val value.Value
}

// Match evaluates the term against a stored row.
func (t SargTerm) Match(row value.Row) bool {
	if t.Col < 0 || t.Col >= len(row) {
		return false
	}
	return t.Op.Apply(row[t.Col], t.Val)
}

// String renders the term for EXPLAIN output.
func (t SargTerm) String() string {
	return fmt.Sprintf("col%d %s %s", t.Col, t.Op, t.Val.SQL())
}

// Sarg is a search argument in disjunctive normal form: the row qualifies if
// every term of at least one disjunct holds. A Sarg with no disjuncts is
// always true.
type Sarg struct {
	Disjuncts [][]SargTerm
}

// And returns the conjunction of s with a single term, distributing it into
// every disjunct (keeps DNF shape).
func (s Sarg) And(t SargTerm) Sarg {
	if len(s.Disjuncts) == 0 {
		return Sarg{Disjuncts: [][]SargTerm{{t}}}
	}
	out := make([][]SargTerm, len(s.Disjuncts))
	for i, d := range s.Disjuncts {
		nd := make([]SargTerm, len(d)+1)
		copy(nd, d)
		nd[len(d)] = t
		out[i] = nd
	}
	return Sarg{Disjuncts: out}
}

// SargSet is a conjunction of search arguments: one DNF per boolean factor,
// all of which a tuple must satisfy.
type SargSet []Sarg

// Match evaluates the conjunction.
func (ss SargSet) Match(row value.Row) bool {
	for _, s := range ss {
		if !s.Match(row) {
			return false
		}
	}
	return true
}

// Match evaluates the DNF against a row.
func (s Sarg) Match(row value.Row) bool {
	if len(s.Disjuncts) == 0 {
		return true
	}
	for _, conj := range s.Disjuncts {
		all := true
		for _, t := range conj {
			if !t.Match(row) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// Scan is the RSI: OPEN positions the scan, each NEXT returns one qualifying
// tuple, CLOSE releases it. Every tuple returned by Next costs one RSI call
// in the shared IOStats.
type Scan interface {
	Open() error
	Next() (value.Row, storage.TID, bool, error)
	Close() error
}

// SegmentScan finds all tuples of a relation by examining every page of its
// segment — including pages that hold only other relations' tuples, which is
// why its cost is TCARD/P.
type SegmentScan struct {
	Table *catalog.Table
	Pool  *storage.BufferPool
	Sargs SargSet
	// Stmt, when non-nil, is the statement's own I/O accumulator: the scan's
	// page fetches and RSI calls are counted into it in addition to the
	// pool's DB-global aggregate, so the statement's measured cost is exact
	// under concurrency.
	Stmt *storage.IOStats
	// Budget, when non-nil, is the statement's execution governor, checked
	// at OPEN, on every page transition, and per tuple examined.
	Budget *governor.Budget
	// Snap is the caller's visibility snapshot: only versions it can see are
	// returned. Nil means "latest committed" (visible ⇔ no delete mark) —
	// correct only for callers that exclude concurrent writers.
	Snap *storage.Snapshot

	io     storage.StmtIO
	pages  []storage.PageID
	pi     int
	slot   uint16
	nslots uint16
	page   *storage.Page
	open   bool
	stage  value.Row // Next's decode buffer, reused across calls
}

// Open positions the scan before the first page.
func (s *SegmentScan) Open() error {
	if err := s.Budget.Check(); err != nil {
		return err
	}
	s.io = s.Pool.View(s.Stmt)
	s.pages = s.Table.Segment.Pages()
	s.pi = -1
	s.page = nil
	s.slot = 0
	s.nslots = 0
	if !s.open {
		s.open = true
		openScans.Add(1)
	}
	return nil
}

// Next returns the next qualifying tuple of the relation in a fresh row.
// Rejected versions are decoded into a buffer the scan reuses, so only the
// tuples returned allocate.
func (s *SegmentScan) Next() (value.Row, storage.TID, bool, error) {
	row, tid, ok, err := s.NextInto(s.stage[:0])
	s.stage = row[:0]
	if !ok || err != nil {
		return nil, storage.TID{}, ok, err
	}
	return row.Clone(), tid, true, nil
}

// NextInto is Next decoding onto the end of dst: it returns dst extended by
// the next qualifying tuple's columns, or with its original length at the
// end of the scan and on error, growing it as append does. Each version
// examined is decoded into dst's spare capacity and truncated away again
// when the relation check, the snapshot or the SARGs reject it, so a caller
// that reuses dst pays no allocation per tuple. The returned columns share
// dst's backing array: the caller copies out what it hands on.
func (s *SegmentScan) NextInto(dst value.Row) (value.Row, storage.TID, bool, error) {
	if !s.open {
		return dst, storage.TID{}, false, fmt.Errorf("rss: Next on closed segment scan of %s", s.Table.Name)
	}
	base := len(dst)
	for {
		if s.page == nil || s.slot >= s.nslots {
			s.pi++
			if s.pi >= len(s.pages) {
				return dst, storage.TID{}, false, nil
			}
			if err := s.Budget.Check(); err != nil {
				return dst, storage.TID{}, false, err
			}
			page, err := s.io.Fetch(s.pages[s.pi])
			if err != nil {
				return dst, storage.TID{}, false, err
			}
			s.page = page
			// The slot window is frozen at page entry: versions appended to
			// this page afterwards were created after the snapshot and could
			// not be visible anyway.
			s.nslots = page.SlotCount()
			s.slot = 0
			continue
		}
		slot := s.slot
		s.slot++
		h, out, rel, ok, err := s.page.ReadVersionedInto(slot, dst)
		if err != nil {
			return dst, storage.TID{}, false, err
		}
		if !ok || rel != s.Table.ID {
			dst = out[:base]
			continue
		}
		if !s.Snap.Visible(h) {
			s.io.AddVersionScanned(true)
			dst = out[:base]
			continue
		}
		s.io.AddVersionScanned(false)
		if err := s.Budget.CheckRow(); err != nil {
			return out[:base], storage.TID{}, false, err
		}
		if !s.Sargs.Match(out[base:]) {
			dst = out[:base]
			continue
		}
		s.io.AddRSICall()
		return out, storage.TID{Page: s.pages[s.pi], Slot: slot}, true, nil
	}
}

// Close ends the scan. Idempotent.
func (s *SegmentScan) Close() error {
	if s.open {
		s.open = false
		openScans.Add(-1)
	}
	s.page = nil
	return nil
}

// IndexScan walks an index between starting and stopping key prefixes and
// returns the data tuples in key order. Lo/Hi are prefixes of the index key;
// nil means unbounded on that side.
type IndexScan struct {
	Index *catalog.Index
	Pool  *storage.BufferPool
	Lo    []value.Value
	LoInc bool
	Hi    []value.Value
	HiInc bool
	Sargs SargSet
	// Stmt, when non-nil, is the statement's own I/O accumulator (see
	// SegmentScan.Stmt).
	Stmt *storage.IOStats
	// Budget, when non-nil, is the statement's execution governor, checked
	// at OPEN and per index entry examined.
	Budget *governor.Budget
	// Snap is the caller's visibility snapshot (see SegmentScan.Snap). Dead
	// versions keep their index entries until vacuum, so the heap fetch
	// arbitrates visibility here exactly as in the segment scan.
	Snap *storage.Snapshot

	io    storage.StmtIO
	it    *btree.Iterator
	open  bool
	stage value.Row // Next's decode buffer, reused across calls
}

// Open descends the B-tree to the starting key.
func (s *IndexScan) Open() error {
	if err := s.Budget.Check(); err != nil {
		return err
	}
	s.io = s.Pool.View(s.Stmt)
	s.it = s.Index.Tree.Seek(s.io, s.Lo)
	if !s.open {
		s.open = true
		openScans.Add(1)
	}
	return nil
}

// Next returns the next qualifying tuple in index key order in a fresh row
// (see SegmentScan.Next).
func (s *IndexScan) Next() (value.Row, storage.TID, bool, error) {
	row, tid, ok, err := s.NextInto(s.stage[:0])
	s.stage = row[:0]
	if !ok || err != nil {
		return nil, storage.TID{}, ok, err
	}
	return row.Clone(), tid, true, nil
}

// NextInto is Next decoding onto the end of dst (see SegmentScan.NextInto).
func (s *IndexScan) NextInto(dst value.Row) (value.Row, storage.TID, bool, error) {
	if !s.open {
		return dst, storage.TID{}, false, fmt.Errorf("rss: Next on closed index scan of %s", s.Index.Name)
	}
	base := len(dst)
	for {
		e, ok := s.it.Next()
		if !ok {
			return dst, storage.TID{}, false, nil
		}
		if err := s.Budget.CheckRow(); err != nil {
			return dst, storage.TID{}, false, err
		}
		if len(s.Lo) > 0 && !s.LoInc && btree.ComparePrefix(e.Key, s.Lo) == 0 {
			continue // strictly-greater start bound
		}
		if len(s.Hi) > 0 {
			cmp := btree.ComparePrefix(e.Key, s.Hi)
			if cmp > 0 || (cmp == 0 && !s.HiInc) {
				return dst, storage.TID{}, false, nil
			}
		}
		page, err := s.io.Fetch(e.TID.Page)
		if err != nil {
			return dst, storage.TID{}, false, err
		}
		h, out, rel, live, err := page.ReadVersionedInto(e.TID.Slot, dst)
		if err != nil {
			return dst, storage.TID{}, false, err
		}
		if !live || rel != s.Index.Table.ID {
			dst = out[:base]
			continue // stale index entry (vacuumed or undone version)
		}
		if !s.Snap.Visible(h) {
			s.io.AddVersionScanned(true)
			dst = out[:base]
			continue
		}
		s.io.AddVersionScanned(false)
		if !s.Sargs.Match(out[base:]) {
			dst = out[:base]
			continue
		}
		s.io.AddRSICall()
		return out, e.TID, true, nil
	}
}

// Close ends the scan. Idempotent.
func (s *IndexScan) Close() error {
	if s.open {
		s.open = false
		openScans.Add(-1)
	}
	s.it = nil
	return nil
}

// Insert validates a row against the table schema, stores it as a new
// version created by xid, and maintains every index. prev links the version
// this one supersedes (UPDATE) or NoPrevTID (INSERT). Unique-index
// violations are detected against *live* heap versions — dead versions keep
// their index entries until vacuum, so the index alone cannot arbitrate.
// The returned row is the stored image (after coercion) — the image a
// transaction's undo log must record, since index keys are derived from it.
func Insert(t *catalog.Table, row value.Row, xid storage.XID, prev storage.TID, disk *storage.Disk) (storage.TID, value.Row, error) {
	if len(row) != len(t.Columns) {
		return storage.TID{}, nil, fmt.Errorf("rss: table %s has %d columns, row has %d", t.Name, len(t.Columns), len(row))
	}
	coerced := make(value.Row, len(row))
	for i, v := range row {
		cv, err := coerce(v, t.Columns[i].Type)
		if err != nil {
			return storage.TID{}, nil, fmt.Errorf("rss: column %s of %s: %w", t.Columns[i].Name, t.Name, err)
		}
		coerced[i] = cv
	}
	for _, ix := range t.Indexes {
		if ix.Unique && indexHasLiveKey(ix, ix.KeyFor(coerced), disk) {
			return storage.TID{}, nil, fmt.Errorf("rss: duplicate key %v violates unique index %s", ix.KeyFor(coerced), ix.Name)
		}
	}
	rec := storage.EncodeVersionedRow(storage.VersionHeader{Xmin: xid, Prev: prev}, coerced)
	tid, err := t.Segment.Insert(t.ID, rec)
	if err != nil {
		return storage.TID{}, nil, err
	}
	for _, ix := range t.Indexes {
		ix.Tree.Insert(ix.KeyFor(coerced), tid)
	}
	return tid, coerced, nil
}

// indexHasLiveKey reports whether a live heap version carries key in ix.
// Reading "no delete mark" as live is exact here: the inserting transaction
// holds the table's exclusive lock, so any mark it finds is its own or a
// committed writer's, and any unmarked version is a genuine duplicate (its
// own earlier insert, or a committed row).
func indexHasLiveKey(ix *catalog.Index, key value.Row, disk *storage.Disk) bool {
	it := ix.Tree.Seek(storage.StmtIO{}, key)
	for {
		e, ok := it.Next()
		if !ok || btree.ComparePrefix(e.Key, key) != 0 {
			return false
		}
		h, _, rel, live, err := disk.Page(e.TID.Page).ReadVersioned(e.TID.Slot)
		if err == nil && live && rel == ix.Table.ID && h.Xmax == 0 {
			return true
		}
	}
}

// MarkDeleted stamps xid as the deleter of the version at tid — DELETE (and
// the delete half of UPDATE) under MVCC: the version stays in place and in
// its indexes so older snapshots keep seeing it; only readers whose snapshot
// includes xid's commit observe the deletion. A version already marked by
// another transaction loses first-updater-wins: that writer committed (table
// X locks serialize writers), so the statement's snapshot is stale and the
// caller gets ErrWriteConflict.
func MarkDeleted(t *catalog.Table, tid storage.TID, xid storage.XID, disk *storage.Disk) error {
	prior, live, swapped := disk.Page(tid.Page).SwapXmax(tid.Slot, 0, xid)
	if swapped {
		return nil
	}
	if !live {
		return fmt.Errorf("rss: tuple %v of %s already removed", tid, t.Name)
	}
	if prior == xid {
		return fmt.Errorf("rss: tuple %v of %s already deleted by this transaction", tid, t.Name)
	}
	return fmt.Errorf("rss: tuple %v of %s already deleted by txn %d: %w", tid, t.Name, prior, ErrWriteConflict)
}

// ClearDeleted undoes a MarkDeleted by xid: the delete mark is cleared in
// place, resurrecting the version for every snapshot byte-exactly (nothing
// else of the record was touched, and its index entries never left).
func ClearDeleted(t *catalog.Table, tid storage.TID, xid storage.XID, disk *storage.Disk) error {
	if _, _, swapped := disk.Page(tid.Page).SwapXmax(tid.Slot, xid, 0); !swapped {
		return fmt.Errorf("rss: undo: tuple %v of %s does not carry txn %d's delete mark", tid, t.Name, xid)
	}
	return nil
}

// Remove physically deletes the version at tid (whose decoded image is row)
// and its index entries: the undo of an Insert, and vacuum's reclamation
// primitive. The slot is never reused, so surviving TIDs and physical dump
// order are unperturbed.
func Remove(t *catalog.Table, tid storage.TID, row value.Row, disk *storage.Disk) error {
	page := disk.Page(tid.Page)
	if !page.Delete(tid.Slot) {
		return fmt.Errorf("rss: version %v of %s already removed", tid, t.Name)
	}
	for _, ix := range t.Indexes {
		ix.Tree.Delete(ix.KeyFor(row), tid)
	}
	return nil
}

// VacuumTable reclaims every version of t deleted by a transaction older
// than horizon (the registry's oldest reachable XID): no live or future
// snapshot can see such a version, so its slot is freed and its index
// entries are dropped. onChain, when non-nil, observes the version-chain
// length behind each live version before reclamation (metrics). The caller
// must hold t's exclusive lock.
func VacuumTable(t *catalog.Table, disk *storage.Disk, horizon storage.XID, onChain func(length int)) (int, error) {
	pages := t.Segment.Pages()
	if onChain != nil {
		for _, pid := range pages {
			page := disk.Page(pid)
			for slot := uint16(0); slot < page.SlotCount(); slot++ {
				//sysrcheck:ignore snappin vacuum reads raw version chains under the registry horizon, not under a snapshot: it must see versions no snapshot can, to reclaim them
				h, _, rel, ok, err := page.ReadVersioned(slot)
				if err != nil || !ok || rel != t.ID || h.Xmax != 0 {
					continue
				}
				length := 1
				for prev := h.Prev; prev != storage.NoPrevTID; {
					ph, _, prel, pok, perr := disk.Page(prev.Page).ReadVersioned(prev.Slot)
					if perr != nil || !pok || prel != t.ID {
						break
					}
					length++
					prev = ph.Prev
				}
				onChain(length)
			}
		}
	}
	reclaimed := 0
	for _, pid := range pages {
		page := disk.Page(pid)
		for slot := uint16(0); slot < page.SlotCount(); slot++ {
			h, row, rel, ok, err := page.ReadVersioned(slot)
			if err != nil {
				return reclaimed, err
			}
			if !ok || rel != t.ID || h.Xmax == 0 || h.Xmax >= horizon {
				continue
			}
			if err := Remove(t, storage.TID{Page: pid, Slot: slot}, row, disk); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// coerce converts v to the column type, allowing the int→float widening the
// SQL front end relies on.
func coerce(v value.Value, want value.Kind) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch want {
	case value.KindInt:
		if v.Kind == value.KindInt {
			return v, nil
		}
	case value.KindFloat:
		switch v.Kind {
		case value.KindFloat:
			return v, nil
		case value.KindInt:
			return value.NewFloat(float64(v.Int)), nil
		}
	case value.KindString:
		if v.Kind == value.KindString {
			return v, nil
		}
	}
	return value.Value{}, fmt.Errorf("cannot store %s value %s in %s column", v.Kind, v.SQL(), want)
}
