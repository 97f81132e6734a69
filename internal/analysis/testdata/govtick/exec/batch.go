// The batched-protocol cases: NextBatch bodies with a direct checkpoint,
// with a governed producer, with neither, and one reading the global ledger.
package exec

import (
	"fixture/governor"
	"fixture/storage"
)

type batch struct{ rows []int }

func (b *batch) full() bool { return len(b.rows) >= 4 }

type scan struct {
	budget *governor.Budget
	pool   *storage.BufferPool
	io     storage.StmtIO
}

// A direct budget call per batch is the boundary idiom.
func (s *scan) NextBatch(b *batch) error {
	if err := s.budget.Tick(); err != nil {
		return err
	}
	for !b.full() {
		b.rows = append(b.rows, 1)
	}
	return nil
}

// next carries its own interior checkpoint, so drivers inherit it.
func (s *scan) next() (int, bool, error) {
	if err := s.budget.Check(); err != nil {
		return 0, false, err
	}
	return 1, true, nil
}

type filter struct{ src *scan }

// Driving a governed producer counts: the checkpoint fires inside next.
func (f *filter) nextBatch(b *batch) error {
	for !b.full() {
		v, ok, err := f.src.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b.rows = append(b.rows, v)
	}
	return nil
}

type rogue struct{ vals []int }

// No checkpoint anywhere: a canceled statement fills whole batches anyway.
func (r *rogue) NextBatch(b *batch) error { // want "fills a batch without a governor checkpoint"
	for !b.full() {
		b.rows = append(b.rows, len(b.rows))
	}
	return nil
}

type globalReader struct {
	budget  *governor.Budget
	pool    *storage.BufferPool
	fetches int64
}

// Ticked, but differencing the pool's global counter blends concurrent
// statements' I/O into the batch delta.
func (g *globalReader) nextBatch(b *batch) error {
	if err := g.budget.Tick(); err != nil {
		return err
	}
	f0 := g.pool.Stats().FetchCount() // want "DB-global IOStats"
	for !b.full() {
		b.rows = append(b.rows, 1)
	}
	g.fetches += g.pool.Stats().FetchCount() - f0 // want "DB-global IOStats"
	return nil
}
