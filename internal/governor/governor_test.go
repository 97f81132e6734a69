package governor

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"systemr/internal/storage"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 1000; i++ {
		if err := b.CheckRow(); err != nil {
			t.Fatalf("nil budget CheckRow: %v", err)
		}
		if err := b.Tick(); err != nil {
			t.Fatalf("nil budget Tick: %v", err)
		}
		if err := b.Check(); err != nil {
			t.Fatalf("nil budget Check: %v", err)
		}
	}
}

func TestRowBudget(t *testing.T) {
	b := New(context.Background(), Limits{MaxRowsScanned: 10}, nil)
	for i := 0; i < 10; i++ {
		if err := b.CheckRow(); err != nil {
			t.Fatalf("row %d within budget: %v", i, err)
		}
	}
	err := b.CheckRow()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("11th row: got %v, want ErrBudgetExceeded", err)
	}
	if want := "11 rows scanned > MaxRowsScanned 10"; !strings.Contains(err.Error(), want) {
		t.Fatalf("11th row: error %q does not report %q", err, want)
	}
}

func TestCancellationObservedWithinCheckInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{}, nil)
	if err := b.CheckRow(); err != nil {
		t.Fatalf("before cancel: %v", err)
	}
	cancel()
	// The cancellation must surface within checkInterval checkpoints.
	for i := 0; i < checkInterval; i++ {
		if err := b.CheckRow(); err != nil {
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel error chain: %v", err)
			}
			return
		}
	}
	t.Fatalf("cancellation not observed within %d checkpoints", checkInterval)
}

func TestCheckObservesCancellationImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(ctx, Limits{}, nil)
	if err := b.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check on canceled ctx: got %v, want ErrCanceled", err)
	}
}

func TestDeadlineMapsToBudgetExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	b := New(ctx, Limits{}, nil)
	err := b.Check()
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrBudgetExceeded wrapping DeadlineExceeded", err)
	}
}

func TestFetchBudgetUsesDeltaFromCreation(t *testing.T) {
	stats := &storage.IOStats{}
	// Pre-existing fetches must not count against the statement.
	for i := 0; i < 5; i++ {
		addFetch(stats)
	}
	b := New(context.Background(), Limits{MaxPageFetches: 3}, stats)
	if err := b.Check(); err != nil {
		t.Fatalf("no fetches yet: %v", err)
	}
	for i := 0; i < 3; i++ {
		addFetch(stats)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	addFetch(stats)
	if err := b.Check(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over limit: got %v, want ErrBudgetExceeded", err)
	}
}

func TestCtxErr(t *testing.T) {
	if err := CtxErr(context.Canceled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CtxErr(Canceled) = %v", err)
	}
	if err := CtxErr(context.DeadlineExceeded); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("CtxErr(DeadlineExceeded) = %v", err)
	}
}

// addFetch charges one buffer-pool miss to the shared counter, as
// BufferPool.Fetch does on a cold page.
func addFetch(stats *storage.IOStats) {
	before := stats.Snapshot().PageFetches
	disk := storage.NewDisk()
	pool := storage.NewBufferPool(disk, 4, stats)
	seg := storage.NewSegment(-1, disk)
	if _, err := seg.Insert(1, []byte{0}); err != nil {
		panic(err)
	}
	if _, err := pool.Fetch(seg.Pages()[0]); err != nil {
		panic(err)
	}
	if stats.Snapshot().PageFetches != before+1 {
		panic("addFetch did not record exactly one page fetch")
	}
}
