package storage

// Multi-version tuple headers and snapshot visibility — the storage half of
// MVCC. Every heap record is a *version*: a fixed 22-byte header (creator
// transaction, deleter transaction, link to the superseded version) followed
// by the ordinary row encoding. Snapshots decide which version of each row a
// statement sees; the RSI scans in internal/rss apply Visible at the
// boundary so nothing above the RSS ever observes an invisible version.
//
// The engine keeps no commit log: an aborting transaction physically undoes
// its writes (inserted versions are removed from the page and its indexes,
// delete marks are cleared), so any transaction ID still present in a header
// belongs to a transaction that is committed, still active, or the reader
// itself. Visibility therefore needs only the reader's snapshot — its own
// ID, the next-unassigned ID at snapshot time, and the set of transactions
// active at snapshot time.

import (
	"encoding/binary"

	"systemr/internal/value"
)

// XID identifies a transaction for versioning. IDs are assigned by the
// transaction registry, monotonically from 1.
type XID uint64

// FrozenXID marks versions created outside any transaction (system catalog
// bootstrap rows, test fixtures): always committed, visible to every
// snapshot.
const FrozenXID XID = 0

// VersionHeaderSize is the fixed header prepended to every heap record:
// xmin (8) + xmax (8) + previous-version page (4) + slot (2).
const VersionHeaderSize = 8 + 8 + 4 + 2

// NoPrevTID is the version-chain terminator: the version was created by an
// INSERT, not an UPDATE, so there is no prior version.
var NoPrevTID = TID{Page: InvalidPageID}

// VersionHeader is one heap version's MVCC metadata.
type VersionHeader struct {
	// Xmin is the transaction that created this version.
	Xmin XID
	// Xmax is the transaction that deleted (or superseded, for UPDATE) this
	// version; 0 while the version is live.
	Xmax XID
	// Prev locates the version this one superseded (UPDATE chains), or
	// NoPrevTID for freshly inserted rows.
	Prev TID
}

// EncodeVersionedRow serializes a version header followed by the row.
func EncodeVersionedRow(h VersionHeader, r value.Row) []byte {
	rec := make([]byte, VersionHeaderSize, VersionHeaderSize+EncodedSize(r))
	putVersionHeader(rec, h)
	return AppendEncodedRow(rec, r)
}

func putVersionHeader(rec []byte, h VersionHeader) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(h.Xmin))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(h.Xmax))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(h.Prev.Page))
	binary.LittleEndian.PutUint16(rec[20:22], h.Prev.Slot)
}

// ParseVersionHeader splits a heap record into its version header and the
// encoded-row body.
func ParseVersionHeader(rec []byte) (VersionHeader, []byte, error) {
	if len(rec) < VersionHeaderSize {
		return VersionHeader{}, nil, ErrCorruptRecord
	}
	h := VersionHeader{
		Xmin: XID(binary.LittleEndian.Uint64(rec[0:8])),
		Xmax: XID(binary.LittleEndian.Uint64(rec[8:16])),
		Prev: TID{
			Page: PageID(binary.LittleEndian.Uint32(rec[16:20])),
			Slot: binary.LittleEndian.Uint16(rec[20:22]),
		},
	}
	return h, rec[VersionHeaderSize:], nil
}

// Snapshot fixes the set of transactions whose effects a statement sees. It
// is taken at BEGIN for explicit transactions (repeatable reads: every
// statement of the transaction reuses it) and per statement for autocommit.
//
// A nil *Snapshot means "latest committed": a version is visible exactly
// when it carries no delete mark. That is correct only when no writer can be
// concurrently active.
type Snapshot struct {
	// Self is the reading transaction's own ID; its own writes are visible.
	Self XID
	// Max is the next-unassigned transaction ID when the snapshot was taken:
	// any ID >= Max started later and is invisible.
	Max XID
	// Active holds the transactions in flight when the snapshot was taken:
	// whatever they commit later is invisible.
	Active map[XID]struct{}
}

// committed reports whether x was committed when the snapshot was taken.
// Because aborts physically undo their writes, an ID found in a header is
// never from an aborted-and-finished transaction: not-active and
// started-before-us means committed.
func (s *Snapshot) committed(x XID) bool {
	if x == FrozenXID {
		return true
	}
	if x >= s.Max {
		return false
	}
	_, active := s.Active[x]
	return !active
}

// Visible reports whether the version described by h is part of the
// snapshot's consistent view: its creator committed before the snapshot (or
// is the reader itself), and it was not deleted by the reader or by a
// transaction committed before the snapshot.
func (s *Snapshot) Visible(h VersionHeader) bool {
	if s == nil {
		return h.Xmax == 0
	}
	if h.Xmin != s.Self && !s.committed(h.Xmin) {
		return false
	}
	switch {
	case h.Xmax == 0:
		return true
	case h.Xmax == s.Self:
		return false
	default:
		return !s.committed(h.Xmax)
	}
}

// SlotCount returns the page's slot-directory size under the shared latch —
// the bound a concurrent scan iterates to. Slots appended after the read
// hold versions the scanning snapshot cannot see anyway.
func (p *Page) SlotCount() uint16 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.NumSlots()
}

// ReadVersioned reads and decodes the version in slot i under the page's
// shared latch, so concurrent in-place delete marks and record appends can
// never tear the read (Record returns a slice aliasing the page image and
// takes no latch). ok is false for missing or (physically) deleted slots;
// err reports a record that does not parse as header + row. Scans judge
// versions on their encoded bytes through VisitVersions instead; this whole-
// row read is for dumps, tests and tools.
func (p *Page) ReadVersioned(i uint16) (h VersionHeader, row value.Row, rel RelID, ok bool, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	rec, rel, ok := p.record(i)
	if !ok {
		return VersionHeader{}, nil, 0, false, nil
	}
	h, body, err := ParseVersionHeader(rec)
	if err != nil {
		return VersionHeader{}, nil, rel, false, err
	}
	if row, err = DecodeRow(body); err != nil {
		return VersionHeader{}, nil, rel, false, err
	}
	return h, row, rel, true, nil
}

// VersionVisitor judges the versions of one page visit (see
// VisitVersions). VisitVersion is called under the page's shared latch with
// the live version in slot: its owning relation, its header, and its
// encoded row, which aliases the page image and must not be kept past the
// call. It returns done to end the visit after this slot, and an error to
// end it and fail. It must not fetch pages or take any lock the latch
// ranks above (see DESIGN.md §14): a visit holds the latch throughout.
type VersionVisitor interface {
	VisitVersion(slot uint16, rel RelID, h VersionHeader, body []byte) (done bool, err error)
}

// VisitFunc adapts a function to a VersionVisitor.
type VisitFunc func(slot uint16, rel RelID, h VersionHeader, body []byte) (bool, error)

// VisitVersion calls f.
func (f VisitFunc) VisitVersion(slot uint16, rel RelID, h VersionHeader, body []byte) (bool, error) {
	return f(slot, rel, h, body)
}

// VisitVersions hands v the live versions in slots [from, to) in slot
// order, under one shared latch for the whole visit: concurrent in-place
// delete marks and record appends wait until it returns, and a scan pays
// one latch per page, not per slot. Deleted slots and slots past the
// directory are passed over. It returns the slot after the last one
// visited — to, or the slot after the one v ended the visit on — and v's
// error, or ErrCorruptRecord for a record too short for its header.
func (p *Page) VisitVersions(from, to uint16, v VersionVisitor) (next uint16, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	to = min(to, p.NumSlots())
	for i := from; i < to; i++ {
		rec, rel, ok := p.record(i)
		if !ok {
			continue
		}
		h, body, err := ParseVersionHeader(rec)
		if err != nil {
			return i + 1, err
		}
		if done, err := v.VisitVersion(i, rel, h, body); done || err != nil {
			return i + 1, err
		}
	}
	return max(from, to), nil
}

// SwapXmax atomically compares slot i's delete mark with old and, when they
// match, stores new — the in-place mutation behind DELETE (0 → self), undo
// of DELETE (self → 0), and first-updater-wins conflict detection: a writer
// that finds prior != 0 set by another transaction has lost the race. live
// is false for missing, physically deleted, or headerless slots (prior is
// meaningless then); swapped reports whether the store happened.
func (p *Page) SwapXmax(i uint16, old, new XID) (prior XID, live, swapped bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, _, ok := p.record(i)
	if !ok || len(rec) < VersionHeaderSize {
		return 0, false, false
	}
	prior = XID(binary.LittleEndian.Uint64(rec[8:16]))
	if prior != old {
		return prior, true, false
	}
	binary.LittleEndian.PutUint64(rec[8:16], uint64(new))
	return prior, true, true
}
