// Package storage implements the physical layer of the Research Storage
// System (RSS) described in Section 3 of the paper: relations stored as
// tuples on 4K-byte slotted pages, pages organized into segments that may be
// shared by several relations (each stored record is tagged with the
// identifier of the relation it belongs to), and a buffer pool through which
// every page access flows so that PAGE FETCHES — the I/O term of the
// optimizer's cost formula — are measured exactly.
package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// PageSize is the size of every data page in bytes. The paper's System R used
// 4K-byte pages; we keep the same size so TCARD/NINDX magnitudes are
// comparable.
const PageSize = 4096

// PageID identifies a page within the simulated disk.
type PageID uint32

// InvalidPageID is the sentinel for "no page".
const InvalidPageID = PageID(0xFFFFFFFF)

// RelID identifies a stored relation. Records carry their RelID so that
// tuples from two or more relations may occur on the same segment page,
// exactly as in the paper.
type RelID uint32

// TID is a tuple identifier: the page that stores the tuple and the slot
// within the page. B-tree leaves hold (key, TID) pairs.
type TID struct {
	Page PageID
	Slot uint16
}

// String renders the TID as page.slot.
func (t TID) String() string { return fmt.Sprintf("%d.%d", t.Page, t.Slot) }

// Compare orders TIDs by page, then slot, returning -1, 0 or +1; it breaks
// ties among duplicate index keys deterministically.
func (t TID) Compare(o TID) int {
	if c := cmp.Compare(t.Page, o.Page); c != 0 {
		return c
	}
	return cmp.Compare(t.Slot, o.Slot)
}

// Page layout (little-endian):
//
//	[0:2)   numSlots  uint16
//	[2:4)   freeOff   uint16  — start of unused space between records and slots
//	[4:...) record heap growing up
//	[...:PageSize) slot directory growing down; slot i occupies the 8 bytes at
//	        PageSize-8*(i+1): off uint16, len uint16, relID uint32.
//	        len == 0 marks a deleted slot.
//
// A Page is a real byte image: rows are serialized into it and parsed back
// out, so TCARD (pages per relation) emerges from actual record sizes.
//
// The page latch (mu) makes the MVCC concurrency contract explicit: the
// mutators (Insert, Delete, Restore, SwapXmax) lock it internally, and the
// readers (VisitVersions, ReadVersioned, SlotCount) hold the shared latch,
// so snapshot scans can run against a page while a writer appends versions
// or flips delete marks in place. A scan takes the latch once per page
// visit, not per slot: VisitVersions holds it while its visitor judges the
// visit's versions on their encoded bytes, and releases it before the scan
// returns a tuple or fetches another page. No lock/unlock pair is exported,
// so the latch is only ever held inside this package's methods, where the
// lock-order analyzer sees it. The raw readers (Record, NumSlots, …) take
// no latch — they are for callers that already exclude writers (table
// locks, the catalog lock, single-threaded tests, private sort temp pages).
type Page struct {
	ID   PageID
	mu   sync.RWMutex
	Data [PageSize]byte
}

const (
	pageHeaderSize = 4
	slotSize       = 8
)

// InitPage formats a zeroed page as an empty slotted page.
func (p *Page) InitPage() {
	binary.LittleEndian.PutUint16(p.Data[0:2], 0)
	binary.LittleEndian.PutUint16(p.Data[2:4], pageHeaderSize)
}

// NumSlots returns the number of slot directory entries (including deleted).
func (p *Page) NumSlots() uint16 { return binary.LittleEndian.Uint16(p.Data[0:2]) }

func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.Data[0:2], n) }

func (p *Page) freeOff() uint16 { return binary.LittleEndian.Uint16(p.Data[2:4]) }

func (p *Page) setFreeOff(off uint16) { binary.LittleEndian.PutUint16(p.Data[2:4], off) }

func (p *Page) slotBase(i uint16) int { return PageSize - slotSize*(int(i)+1) }

// FreeSpace returns the bytes available for one more record plus its slot.
func (p *Page) FreeSpace() int {
	free := p.slotBase(p.NumSlots()) - int(p.freeOff())
	if free < 0 {
		return 0
	}
	return free
}

// ErrPageFull is returned when a record does not fit on the page.
var ErrPageFull = errors.New("storage: page full")

// ErrRecordTooLarge is returned for records that cannot fit on any page.
var ErrRecordTooLarge = errors.New("storage: record larger than page")

// MaxRecordSize is the largest record Insert accepts.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// Insert appends a record belonging to rel and returns its slot number.
func (p *Page) Insert(rel RelID, record []byte) (uint16, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(record) > MaxRecordSize {
		return 0, ErrRecordTooLarge
	}
	need := len(record) + slotSize
	if p.FreeSpace() < need {
		return 0, ErrPageFull
	}
	slot := p.NumSlots()
	off := p.freeOff()
	copy(p.Data[off:], record)
	base := p.slotBase(slot)
	binary.LittleEndian.PutUint16(p.Data[base:], off)
	binary.LittleEndian.PutUint16(p.Data[base+2:], uint16(len(record)))
	binary.LittleEndian.PutUint32(p.Data[base+4:], uint32(rel))
	p.setFreeOff(off + uint16(len(record)))
	p.setNumSlots(slot + 1)
	return slot, nil
}

// Record returns the bytes and owning relation of slot i. ok is false when
// the slot does not exist or has been deleted. The returned slice aliases
// the page image and no latch is taken: callers must exclude concurrent
// writers (table lock, catalog lock) or read through VisitVersions.
func (p *Page) Record(i uint16) (rec []byte, rel RelID, ok bool) {
	return p.record(i)
}

func (p *Page) record(i uint16) (rec []byte, rel RelID, ok bool) {
	if i >= p.NumSlots() {
		return nil, 0, false
	}
	base := p.slotBase(i)
	off := binary.LittleEndian.Uint16(p.Data[base:])
	n := binary.LittleEndian.Uint16(p.Data[base+2:])
	if n == 0 {
		return nil, 0, false
	}
	rel = RelID(binary.LittleEndian.Uint32(p.Data[base+4:]))
	return p.Data[off : off+n], rel, true
}

// Delete marks slot i deleted. Space is not compacted; the paper's cost
// model does not depend on in-page compaction and segment scans simply skip
// deleted slots.
func (p *Page) Delete(i uint16) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= p.NumSlots() {
		return false
	}
	base := p.slotBase(i)
	if binary.LittleEndian.Uint16(p.Data[base+2:]) == 0 {
		return false
	}
	binary.LittleEndian.PutUint16(p.Data[base+2:], 0)
	return true
}

// Restore resurrects deleted slot i with the record it held, byte-exactly:
// Delete only zeroes the slot's length (bytes and offset remain, and heap
// space is never reused), so undoing a delete rewrites the record at its
// original offset and restores the original length and owning relation. It
// reports false — without touching the page — when the slot does not exist,
// is still live, or the record would overrun the slot's original footprint.
func (p *Page) Restore(i uint16, rel RelID, record []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= p.NumSlots() {
		return false
	}
	base := p.slotBase(i)
	if binary.LittleEndian.Uint16(p.Data[base+2:]) != 0 {
		return false // live slot: not restorable
	}
	off := binary.LittleEndian.Uint16(p.Data[base:])
	// The record may only occupy the slot's original footprint: up to the
	// nearest later record start (deleted slots keep their bytes too — they
	// may be restored next), or the free offset when this is the last record.
	bound := p.freeOff()
	for j := uint16(0); j < p.NumSlots(); j++ {
		if j == i {
			continue
		}
		jOff := binary.LittleEndian.Uint16(p.Data[p.slotBase(j):])
		if jOff > off && jOff < bound {
			bound = jOff
		}
	}
	if int(off)+len(record) > int(bound) {
		return false // would overwrite a later record
	}
	copy(p.Data[off:], record)
	binary.LittleEndian.PutUint16(p.Data[base+2:], uint16(len(record)))
	binary.LittleEndian.PutUint32(p.Data[base+4:], uint32(rel))
	return true
}

// HasRecordsFor reports whether any live slot on the page belongs to rel.
func (p *Page) HasRecordsFor(rel RelID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for i := uint16(0); i < p.NumSlots(); i++ {
		if _, r, ok := p.record(i); ok && r == rel {
			return true
		}
	}
	return false
}

// RecordsFor counts the live slots on the page that belong to rel.
func (p *Page) RecordsFor(rel RelID) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for i := uint16(0); i < p.NumSlots(); i++ {
		if _, r, ok := p.record(i); ok && r == rel {
			n++
		}
	}
	return n
}

// LiveRecords returns the number of live (non-deleted) slots.
func (p *Page) LiveRecords() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for i := uint16(0); i < p.NumSlots(); i++ {
		if _, _, ok := p.record(i); ok {
			n++
		}
	}
	return n
}
