// The stmtio cases: per-operator fetch deltas in the executor must come
// from the statement's StmtIO accumulator, never the pool's global ledger.
package exec

import "fixture/storage"

type op struct {
	io      storage.StmtIO
	pool    *storage.BufferPool
	fetches int64
}

// Differencing the global counter attributes concurrent statements' I/O to
// this operator — exactly the bug PR 5 fixed.
func (o *op) nextGlobal() {
	before := o.pool.Stats().FetchCount()             // want "DB-global IOStats"
	o.fetches += o.pool.Stats().FetchCount() - before // want "DB-global IOStats"
}

// The statement-local accumulator is the sanctioned counter.
func (o *op) nextLocal() {
	before := o.io.FetchCount()
	o.fetches += o.io.FetchCount() - before
}

// The escape hatch: a directive with a reason silences the finding.
func (o *op) debugDump() int64 {
	//sysrcheck:ignore layering debugging helper reports the global ledger on purpose
	return o.pool.Stats().FetchCount()
}
