// The govtick cases: producing loops with and without checkpoints, the
// governed-producer facts, and the ignore directive.
package exec

import (
	"fixture/governor"
	"fixture/rss"
	"fixture/storage"
)

type input func() (rss.Row, bool, error)

// A loop draining a dynamic producer needs its own checkpoint: the callee
// can never be proven governed.
func drainUngoverned(in input) error {
	for { // want "loop produces tuples/pages .* without a governor budget check"
		_, ok, err := in()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// The same loop with a budget checkpoint passes.
func drainGoverned(b *governor.Budget, in input) error {
	for {
		if err := b.Tick(); err != nil {
			return err
		}
		_, ok, err := in()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// Driving a producer that checks the budget internally passes without a
// loop-level checkpoint — the governed fact crosses the package boundary.
func drainScan(s *rss.Scan) error {
	for {
		_, ok, err := s.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// An ungoverned Next in this package is flagged.
type rawIter struct{}

func (it *rawIter) Next() (rss.Row, bool, error) { return nil, false, nil }

func drainRaw(it *rawIter) {
	for { // want "loop produces tuples/pages .* without a governor budget check"
		_, ok, _ := it.Next()
		if !ok {
			return
		}
	}
}

// Governedness is transitive: next delegates to the governed scan, so the
// loop below needs no checkpoint of its own.
type wrapped struct{ s *rss.Scan }

func (w *wrapped) next() (rss.Row, bool, error) { return w.s.Next() }

func drainWrapped(w *wrapped) {
	for {
		_, ok, _ := w.next()
		if !ok {
			return
		}
	}
}

// A call through a sealed interface (one with an unexported method, so only
// this package's types can implement it) is governed when every
// implementation is: wrapped is the only rowSource.
type rowSource interface {
	next() (rss.Row, bool, error)
}

func drainSource(src rowSource) {
	for {
		_, ok, _ := src.next()
		if !ok {
			return
		}
	}
}

// One ungoverned implementation leaves the dispatch ungoverned.
type rawSource interface {
	Next() (rss.Row, bool, error)
	raw()
}

func (it *rawIter) raw() {}

func drainRawSource(src rawSource) {
	for { // want "loop produces tuples/pages .* without a governor budget check"
		_, ok, _ := src.Next()
		if !ok {
			return
		}
	}
}

// Page fetches and inserts are producers too.
func fetchAll(bp *storage.BufferPool, ids []int) error {
	for _, id := range ids { // want "loop produces tuples/pages .* without a governor budget check"
		if _, err := bp.Fetch(id); err != nil {
			return err
		}
	}
	return nil
}

func insertAll(b *governor.Budget, seg *storage.Segment, recs [][]byte) error {
	for _, rec := range recs {
		if err := b.Tick(); err != nil {
			return err
		}
		if _, err := seg.Insert(1, rec); err != nil {
			return err
		}
	}
	return nil
}

// Both the local rule and unticked reachability see this loop: it drives
// an ungoverned Next with no checkpoint, and Pump reaches it with no tick
// anywhere on the stack. One loop, one finding.
func pumpRaw(it *rawIter) {
	for { // want "loop produces tuples/pages .* without a governor budget check"
		_, ok, _ := it.Next()
		if !ok {
			return
		}
	}
}

func Pump(it *rawIter) { pumpRaw(it) }
