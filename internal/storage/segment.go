package storage

import "sync"

// Segment is the logical unit of pages described in Section 3: segments may
// contain one or more relations, but no relation spans a segment. A segment
// scan touches every non-empty page of the segment exactly once, returning
// only the tuples of the requested relation — which is precisely why the
// paper's segment-scan cost is TCARD/P (all pages of the segment), not TCARD.
type Segment struct {
	mu    sync.Mutex
	ID    int
	disk  *Disk
	pages []PageID
	// lastFor remembers the last page with free space per relation so that a
	// relation loaded in key order stays physically clustered (the clustered-
	// index property of Section 3 arises from insertion order, as in the
	// paper: "if the tuples are inserted into segment pages in the index
	// ordering ... the index is clustered").
	lastFor map[RelID]PageID
}

// NewSegment creates an empty segment on disk.
func NewSegment(id int, disk *Disk) *Segment {
	return &Segment{ID: id, disk: disk, lastFor: make(map[RelID]PageID)}
}

// Pages returns the segment's page IDs in physical order. The caller must
// not mutate the returned slice.
func (s *Segment) Pages() []PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pages
}

// NumPages returns the number of pages in the segment.
func (s *Segment) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Insert stores a record for rel, appending a page when the current one is
// full, and returns the record's TID. Writes bypass the buffer pool's read
// accounting (loading is not part of any measured query) but the page is left
// resident, matching a freshly written buffer frame.
func (s *Segment) Insert(rel RelID, record []byte) (TID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if last, ok := s.lastFor[rel]; ok {
		p := s.disk.page(last)
		if slot, err := p.Insert(rel, record); err == nil {
			return TID{Page: last, Slot: slot}, nil
		}
	} else if n := len(s.pages); n > 0 {
		// First insert for this relation into a shared segment: reuse the
		// segment's current last page — "tuples from two or more relations
		// may occur on the same page" (Section 3).
		last := s.pages[n-1]
		if slot, err := s.disk.page(last).Insert(rel, record); err == nil {
			s.lastFor[rel] = last
			return TID{Page: last, Slot: slot}, nil
		}
	}
	id, p := s.disk.AllocPage()
	s.pages = append(s.pages, id)
	s.lastFor[rel] = id
	slot, err := p.Insert(rel, record)
	if err != nil {
		return TID{}, err
	}
	return TID{Page: id, Slot: slot}, nil
}

// InterleaveBreak forces the next insert (for any relation) onto a fresh
// page, separating physically what was loaded before from what is loaded
// after. Workload generators use it to control which relations share pages.
func (s *Segment) InterleaveBreak() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastFor = make(map[RelID]PageID)
	id, _ := s.disk.AllocPage()
	s.pages = append(s.pages, id)
}

// NonEmptyPages counts pages holding at least one live record of any
// relation — the denominator of P(T) = TCARD(T) / (non-empty pages).
func (s *Segment) NonEmptyPages() int {
	s.mu.Lock()
	pages := append([]PageID(nil), s.pages...)
	s.mu.Unlock()
	n := 0
	for _, id := range pages {
		if s.disk.page(id).LiveRecords() > 0 {
			n++
		}
	}
	return n
}

// PagesHolding counts pages with at least one live record of rel — TCARD(T).
func (s *Segment) PagesHolding(rel RelID) int {
	s.mu.Lock()
	pages := append([]PageID(nil), s.pages...)
	s.mu.Unlock()
	n := 0
	for _, id := range pages {
		if s.disk.page(id).HasRecordsFor(rel) {
			n++
		}
	}
	return n
}

// RecordsOf counts the live records of rel. Every version a snapshot can see
// is one, and so is every delete-marked version vacuum has not reclaimed,
// so the count bounds the rows any scan of rel returns.
func (s *Segment) RecordsOf(rel RelID) int {
	s.mu.Lock()
	pages := s.pages
	s.mu.Unlock()
	n := 0
	for _, id := range pages {
		n += s.disk.page(id).RecordsFor(rel)
	}
	return n
}
