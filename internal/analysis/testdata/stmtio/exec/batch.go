// The batched-protocol case: a nextBatch body computes its batch's fetch
// delta, and differencing the pool's global counter there blends concurrent
// statements' I/O into it.
package exec

import "fixture/storage"

type batch struct{ rows []int }

func (b *batch) full() bool { return len(b.rows) >= 4 }

type globalReader struct {
	pool    *storage.BufferPool
	fetches int64
}

func (g *globalReader) nextBatch(b *batch) error {
	f0 := g.pool.Stats().FetchCount() // want "DB-global IOStats"
	for !b.full() {
		b.rows = append(b.rows, 1)
	}
	g.fetches += g.pool.Stats().FetchCount() - f0 // want "DB-global IOStats"
	return nil
}
