// Package engine exercises both snappin checks: unpinned origins reaching
// the read sinks, and pins that are not released on every return path.
package engine

import (
	"fixture/rss"
	"fixture/storage"
	"fixture/txn"
)

// DrainUnpinned is an entry point with no Begin anywhere on its chain — it
// conjures the scan out of a bare page rather than receiving one bound to
// a snapshot. The findings land on the scan's sink calls, naming this
// chain. (A root that *receives* a snapshot-carrying value is a contract
// boundary instead; see External.)
func DrainUnpinned(p *storage.Page) {
	s := &rss.Scan{Snap: &storage.Snapshot{}, Page: p}
	for {
		if _, ok := s.Next(); !ok {
			return
		}
	}
}

// DrainPinned captures and releases a registration around the same scan.
func DrainPinned(r *txn.Registry, s *rss.Scan) {
	reg := r.Begin()
	defer r.Finish(reg)
	for {
		if _, ok := s.Next(); !ok {
			return
		}
	}
}

// ReadDirect reads a version right here with no pin on any chain.
func ReadDirect(p *storage.Page) {
	p.ReadVersioned(3) // want "without a pinned snapshot"
}

// External receives the snapshot from outside the program: the signature
// moves the pin obligation to the caller, so this root is a contract
// boundary, not a finding.
func External(snap *storage.Snapshot, p *storage.Page) bool {
	x, ok := p.ReadVersioned(0)
	return ok && snap.Visible(x)
}

// leakyPin releases on the happy path but not on the early return.
func leakyPin(r *txn.Registry, s *rss.Scan) {
	reg := r.Begin()
	if _, ok := s.Next(); !ok {
		return // want "not be released on this return path"
	}
	r.Finish(reg)
}

// forgottenPin never releases at all.
func forgottenPin(r *txn.Registry) {
	reg := r.Begin() // want "never released"
	if reg.Snap == nil {
		panic("registry issued a pin with no snapshot")
	}
}

// finishThenBreak releases the pin just before the break that leaves the
// loop, so the return after it is covered.
func finishThenBreak(r *txn.Registry, s *rss.Scan) bool {
	reg := r.Begin()
	for {
		if _, ok := s.Next(); !ok {
			r.Finish(reg)
			break
		}
	}
	return true
}

// pinPerItem takes a pin in every iteration and never releases it, so the
// return after the loop may leave the last one pinned.
func pinPerItem(r *txn.Registry, xs []int) bool {
	for range xs {
		reg := r.Begin()
		if reg.Snap == nil {
			panic("registry issued a pin with no snapshot")
		}
	}
	return true // want "not be released on this return path"
}
