package storage

// StmtIO is a statement-scoped view of a BufferPool: every page access and
// RSI call made through it is accounted into the statement's own IOStats
// accumulator in addition to the pool's DB-global aggregate. Scans and the
// executor thread a StmtIO from OPEN down to the page level, so each
// statement's measured cost (operator fetch attribution, governor budgets,
// ExecStats) is exact even while other statements run concurrently.
//
// The zero StmtIO is inert: accesses account nowhere and FetchCount returns
// 0 (used by catalog probes that must not perturb measurements).
type StmtIO struct {
	pool *BufferPool
	stmt *IOStats
}

// View returns a statement-scoped view of the pool accounting into stmt.
// A nil stmt yields a view that accounts into the global aggregate only.
func (bp *BufferPool) View(stmt *IOStats) StmtIO {
	return StmtIO{pool: bp, stmt: stmt}
}

// Pool returns the underlying buffer pool (nil for the zero view).
func (io StmtIO) Pool() *BufferPool { return io.pool }

// Stmt returns the statement accumulator (nil when the view is global-only).
func (io StmtIO) Stmt() *IOStats { return io.stmt }

// Get is BufferPool.Get with statement accounting.
func (io StmtIO) Get(id PageID) *Page {
	if io.pool == nil {
		return nil
	}
	io.pool.admit(io.stmt, id, false)
	return io.pool.disk.page(id)
}

// Fetch is BufferPool.Fetch with statement accounting: injected faults
// propagate and the attempted fetch is still counted on both ledgers.
func (io StmtIO) Fetch(id PageID) (*Page, error) {
	if io.pool == nil {
		return nil, nil
	}
	if err := io.pool.admit(io.stmt, id, true); err != nil {
		return nil, err
	}
	return io.pool.disk.page(id), nil
}

// Touch is BufferPool.Touch with statement accounting; a no-op on the zero
// view, so un-instrumented B-tree walks (catalog lookups) cost nothing.
func (io StmtIO) Touch(id PageID) {
	if io.pool == nil {
		return
	}
	io.pool.admit(io.stmt, id, false)
}

// MarkWritten accounts a temp-page write on both ledgers.
func (io StmtIO) MarkWritten(id PageID) {
	if io.pool == nil {
		return
	}
	io.pool.markWritten(io.stmt, id)
}

// AddRSICall records one tuple crossing the RSS interface on both ledgers.
func (io StmtIO) AddRSICall() {
	if io.pool == nil {
		return
	}
	io.pool.stats.AddRSICall()
	io.stmt.AddRSICall()
}

// AddVersionScanned records one heap version examined (skipped = invisible
// to the scanning snapshot) on both ledgers.
func (io StmtIO) AddVersionScanned(skipped bool) {
	if io.pool == nil {
		return
	}
	io.pool.stats.AddVersionScanned(skipped)
	io.stmt.AddVersionScanned(skipped)
}

// FetchCount returns the statement-local page-fetch counter — the number the
// executor deltas around operator calls. Falls back to the global counter
// only when the view carries no statement accumulator (single-statement
// tooling); the executor always supplies one.
func (io StmtIO) FetchCount() int64 {
	if io.stmt != nil {
		return io.stmt.FetchCount()
	}
	if io.pool == nil {
		return 0
	}
	return io.pool.stats.FetchCount()
}

// Snapshot returns the statement accumulator's counters (global aggregate
// when the view has no statement accumulator).
func (io StmtIO) Snapshot() IOStatsSnapshot {
	if io.stmt != nil {
		return io.stmt.Snapshot()
	}
	if io.pool == nil {
		return IOStatsSnapshot{}
	}
	return io.pool.stats.Snapshot()
}
