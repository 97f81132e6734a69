// Package governor implements the statement execution governor: a
// per-statement budget of cancellation, wall-clock deadline (carried by the
// context), rows scanned, and page fetches, checked at the RSI OPEN/NEXT
// loops so that even a worst-case plan — which the optimizer cannot always
// avoid — terminates promptly instead of running away with the engine.
//
// A *Budget is created per statement and threaded through exec.Runtime into
// every scan. All methods are nil-receiver safe: code paths that execute
// without a governor (experiments, internal loading) pass a nil budget and
// pay a single pointer comparison per checkpoint. Its counters are atomics,
// so every checkpoint is safe to hit from any goroutine.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"systemr/internal/storage"
)

// Typed errors. Budget violations and cancellations wrap one of these, so
// callers dispatch with errors.Is. The underlying context error
// (context.Canceled / context.DeadlineExceeded) is also wrapped and remains
// visible to errors.Is.
var (
	// ErrCanceled reports that the statement's context was canceled.
	ErrCanceled = errors.New("statement canceled")
	// ErrBudgetExceeded reports that the statement exhausted a resource
	// budget: rows scanned, page fetches, or its deadline.
	ErrBudgetExceeded = errors.New("statement budget exceeded")
)

// checkInterval bounds how many RSI checkpoints may pass between context
// polls: a canceled statement observes the cancellation within this many
// tuple examinations.
const checkInterval = 16

// Limits are the per-statement resource bounds; zero means unlimited.
type Limits struct {
	// MaxRowsScanned bounds the tuples a statement may examine across all
	// of its scans (not the tuples it returns — a scan that rejects
	// everything still pays).
	MaxRowsScanned int64
	// MaxPageFetches bounds buffer-pool misses charged to the statement.
	MaxPageFetches int64
}

// Budget is one statement's governor state. rows and sinceCheck are atomics
// so any goroutine may hit a checkpoint.
type Budget struct {
	ctx          context.Context
	limits       Limits
	stats        *storage.IOStats
	startFetches int64
	rows         atomic.Int64
	sinceCheck   atomic.Int32
}

// New creates a budget for one statement. stats is the statement's own I/O
// accumulator (the same one the executor threads to its scans through a
// storage.StmtIO view); the fetch budget is enforced against the delta from
// now, so only this statement's fetches count against it — concurrent
// statements cannot spend each other's budgets.
func New(ctx context.Context, limits Limits, stats *storage.IOStats) *Budget {
	b := &Budget{ctx: ctx, limits: limits, stats: stats}
	if stats != nil {
		b.startFetches = stats.Snapshot().PageFetches
	}
	return b
}

// IO returns the statement's I/O accumulator (nil for an ungoverned or
// stats-less budget). The executor threads it to scans so budget enforcement
// and measurement read the same per-statement counters.
func (b *Budget) IO() *storage.IOStats {
	if b == nil {
		return nil
	}
	return b.stats
}

// CheckRow records one tuple examined at an RSI checkpoint and enforces the
// row budget; every checkInterval-th call also polls the context and the
// fetch budget.
func (b *Budget) CheckRow() error {
	if b == nil {
		return nil
	}
	rows := b.rows.Add(1)
	if b.limits.MaxRowsScanned > 0 && rows > b.limits.MaxRowsScanned {
		return fmt.Errorf("%w: %d rows scanned > MaxRowsScanned %d",
			ErrBudgetExceeded, rows, b.limits.MaxRowsScanned)
	}
	return b.tick()
}

// Tick is a non-row checkpoint (temporary-list row delivery, page
// transitions): every checkInterval-th call runs a full Check.
func (b *Budget) Tick() error {
	if b == nil {
		return nil
	}
	return b.tick()
}

func (b *Budget) tick() error {
	if b.sinceCheck.Add(1) < checkInterval {
		return nil
	}
	return b.Check()
}

// Check polls the context and the page-fetch budget. Scans call it at OPEN
// and on every page transition.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	b.sinceCheck.Store(0)
	if err := b.ctx.Err(); err != nil {
		return CtxErr(err)
	}
	if b.limits.MaxPageFetches > 0 && b.stats != nil {
		fetched := b.stats.Snapshot().PageFetches - b.startFetches
		if fetched > b.limits.MaxPageFetches {
			return fmt.Errorf("%w: %d page fetches > MaxPageFetches %d",
				ErrBudgetExceeded, fetched, b.limits.MaxPageFetches)
		}
	}
	return nil
}

// RowsScanned returns the tuples examined so far.
func (b *Budget) RowsScanned() int64 {
	if b == nil {
		return 0
	}
	return b.rows.Load()
}

// CtxErr maps a non-nil context error to the governor's typed errors: an
// expired deadline is a spent time budget, everything else is a
// cancellation. The context error stays in the chain for errors.Is.
func CtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, err)
}
