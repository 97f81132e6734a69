package xsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"systemr/internal/governor"
	"systemr/internal/storage"
	"systemr/internal/value"
)

func sliceInput(rows []value.Row) Input {
	i := 0
	return func() (value.Row, bool, error) {
		if i >= len(rows) {
			return nil, false, nil
		}
		r := rows[i]
		i++
		return r, true, nil
	}
}

// drain reads every row of res, cloning each: a row Next returns is
// overwritten by a later call.
func drain(t *testing.T, res *Result) []value.Row {
	t.Helper()
	var out []value.Row
	for {
		row, ok, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, row.Clone())
	}
}

func randomRows(rnd *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(rnd.Intn(50))),
			value.NewInt(int64(i)),
			value.NewString(string(rune('a' + rnd.Intn(26)))),
		}
	}
	return rows
}

func newEnv(capacity int) (Config, *storage.IOStats) {
	disk := storage.NewDisk()
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(disk, capacity, stats)
	return Config{Pool: pool, Disk: disk}, stats
}

func TestSortMatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rnd.Intn(2000)
		rows := randomRows(rnd, n)
		want := make([]value.Row, n)
		copy(want, rows)
		sort.SliceStable(want, func(i, j int) bool {
			return value.CompareRows(want[i], want[j], []int{0, 2}, nil) < 0
		})

		cfg, _ := newEnv(4) // tiny buffer forces spills and merge passes
		cfg.Keys = []int{0, 2}
		res, err := Sort(cfg, sliceInput(rows))
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, res)
		res.Close()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if value.CompareRows(got[i], want[i], []int{0, 2}, nil) != 0 {
				t.Fatalf("trial %d: row %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSortDescending(t *testing.T) {
	cfg, _ := newEnv(8)
	cfg.Keys = []int{0}
	cfg.Desc = []bool{true}
	rows := randomRows(rand.New(rand.NewSource(4)), 300)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, res)
	for i := 1; i < len(got); i++ {
		if value.Compare(got[i-1][0], got[i][0]) < 0 {
			t.Fatalf("row %d not descending: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestSortStableWithinEqualKeys(t *testing.T) {
	// Column 1 is the original position; equal keys must keep input order.
	cfg, _ := newEnv(4)
	cfg.Keys = []int{0}
	rows := randomRows(rand.New(rand.NewSource(5)), 1000)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, res)
	for i := 1; i < len(got); i++ {
		if value.Compare(got[i-1][0], got[i][0]) == 0 && got[i-1][1].Int > got[i][1].Int {
			t.Fatalf("instability at %d: serial %d before %d", i, got[i-1][1].Int, got[i][1].Int)
		}
	}
}

func TestSortEmptyInput(t *testing.T) {
	cfg, _ := newEnv(4)
	cfg.Keys = []int{0}
	res, err := Sort(cfg, sliceInput(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, res); len(rows) != 0 {
		t.Fatalf("empty input produced %d rows", len(rows))
	}
}

func TestSortAccounting(t *testing.T) {
	cfg, stats := newEnv(4)
	cfg.Keys = []int{0}
	const n = 2000
	rows := randomRows(rand.New(rand.NewSource(6)), n)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	res.Close()
	s := stats.Snapshot()
	// One RSI call per tuple written into the temp list plus one per tuple
	// read out of the final merge.
	if s.RSICalls != 2*n {
		t.Fatalf("RSI calls = %d, want %d", s.RSICalls, 2*n)
	}
	if s.PagesWritten == 0 || s.PageFetches == 0 {
		t.Fatalf("sort must do page I/O: %+v", s)
	}
	// With a 4-page buffer and ~2000 small rows the data spills across
	// multiple runs; total I/O stays within a small multiple of the data
	// size (multi-pass merges).
	if s.PageFetches > 10*s.PagesWritten {
		t.Fatalf("suspicious fetch/write ratio: %+v", s)
	}
}

func TestSortSinglePassWhenFitsBuffer(t *testing.T) {
	cfg, stats := newEnv(64)
	cfg.Keys = []int{0}
	rows := randomRows(rand.New(rand.NewSource(7)), 100)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	s := stats.Snapshot()
	// Everything fits one run: pages written once, read once.
	if s.PagesWritten != s.PageFetches {
		t.Fatalf("single-run sort should write and read the same pages: %+v", s)
	}
}

func TestResultCloseEvictsTempPages(t *testing.T) {
	cfg, _ := newEnv(16)
	cfg.Keys = []int{0}
	rows := randomRows(rand.New(rand.NewSource(8)), 500)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res)
	res.Close()
	for _, p := range res.pages {
		if cfg.Pool.Resident(p) {
			t.Fatalf("temp page %d still resident after Close", p)
		}
	}
	res.Close() // idempotent
}

func TestSortMultiPassMerge(t *testing.T) {
	// Capacity 3 → fanin 2: many runs force intermediate merge passes.
	cfg, stats := newEnv(3)
	cfg.Keys = []int{0}
	cfg.BufferBytes = 256 // tiny runs
	rows := randomRows(rand.New(rand.NewSource(9)), 3000)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, res)
	res.Close()
	if len(got) != 3000 {
		t.Fatalf("rows: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if value.Compare(got[i-1][0], got[i][0]) > 0 {
			t.Fatalf("unsorted at %d", i)
		}
	}
	s := stats.Snapshot()
	// Multi-pass: pages written exceed a single materialization.
	if s.PagesWritten <= s.PageFetches/4 {
		t.Logf("io: %+v", s)
	}
	if s.PagesWritten == 0 {
		t.Fatal("expected temp writes")
	}
}

func TestSortInputErrorPropagates(t *testing.T) {
	cfg, _ := newEnv(4)
	cfg.Keys = []int{0}
	calls := 0
	in := func() (value.Row, bool, error) {
		calls++
		if calls > 10 {
			return nil, false, errInput
		}
		return value.Row{value.NewInt(int64(calls))}, true, nil
	}
	if _, err := Sort(cfg, in); err == nil {
		t.Fatal("input error must propagate")
	}
}

var errInput = errTest("input broke")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestSortDescTailDefaultsAscending(t *testing.T) {
	cfg, _ := newEnv(8)
	cfg.Keys = []int{0, 1}
	cfg.Desc = []bool{true} // second key defaults ascending
	rows := randomRows(rand.New(rand.NewSource(10)), 400)
	res, err := Sort(cfg, sliceInput(rows))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, res)
	for i := 1; i < len(got); i++ {
		c0 := value.Compare(got[i-1][0], got[i][0])
		if c0 < 0 {
			t.Fatalf("first key not descending at %d", i)
		}
		if c0 == 0 && value.Compare(got[i-1][1], got[i][1]) > 0 {
			t.Fatalf("second key not ascending at %d", i)
		}
	}
}

// A canceled statement aborts during run generation: the phase-1 input
// loop ticks the governor, so the sort stops within one check interval
// instead of draining its whole input first.
func TestSortCanceledDuringRunGeneration(t *testing.T) {
	cfg, _ := newEnv(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Budget = governor.New(ctx, governor.Limits{}, nil)
	cfg.Keys = []int{0}
	cfg.BufferBytes = 256 // force spilled runs
	rnd := rand.New(rand.NewSource(7))
	rows := randomRows(rnd, 500)
	consumed := 0
	in := func() (value.Row, bool, error) {
		if consumed >= len(rows) {
			return nil, false, nil
		}
		r := rows[consumed]
		consumed++
		return r, true, nil
	}
	res, err := Sort(cfg, in)
	if err == nil {
		res.Close()
		t.Fatal("sort under canceled context succeeded")
	}
	if !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if consumed >= len(rows) {
		t.Fatalf("input fully drained (%d rows) despite canceled budget", consumed)
	}
}

// A page-fetch budget aborts the sort while it reads spilled runs back:
// the merge passes and the run readers fetch temp pages through the
// governed loops, so ErrBudgetExceeded surfaces mid-sort, not after.
func TestSortBudgetExceededDuringSpillReads(t *testing.T) {
	cfg, stats := newEnv(4)
	cfg.Keys = []int{0}
	cfg.BufferBytes = 256 // many runs -> intermediate merge passes
	cfg.Budget = governor.New(context.Background(), governor.Limits{MaxPageFetches: 2}, stats)
	rnd := rand.New(rand.NewSource(8))
	res, err := Sort(cfg, sliceInput(randomRows(rnd, 400)))
	if err == nil {
		// If the runs fit the first merge, the budget trips on delivery.
		defer res.Close()
		for err == nil {
			_, ok, nerr := res.Next()
			if nerr != nil {
				err = nerr
			} else if !ok {
				break
			}
		}
	}
	if !errors.Is(err, governor.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

// TestFailedSortFreesItsPages: a sort that fails gives back every temp
// page it wrote — the finished runs, the merged ones and the run it was
// writing — so repeating the failure does not grow the disk. It fails once
// on its input during run generation and once on a page-fetch budget
// during the intermediate merge passes.
func TestFailedSortFreesItsPages(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(11)), 600)
	for _, tc := range []struct {
		name      string
		maxFetch  int64
		failAfter int
	}{
		{"input error", 0, 500},
		{"fetch budget during merges", 40, 0},
	} {
		cfg, stats := newEnv(3) // fan-in 2: intermediate merge passes
		cfg.Keys = []int{0}
		cfg.BufferBytes = 256
		var sizes []int
		for i := 0; i < 3; i++ {
			stats.Reset()
			if tc.maxFetch > 0 {
				cfg.Budget = governor.New(context.Background(), governor.Limits{MaxPageFetches: tc.maxFetch}, stats)
			}
			in := sliceInput(rows)
			if tc.failAfter > 0 {
				n := 0
				in = func() (value.Row, bool, error) {
					if n++; n > tc.failAfter {
						return nil, false, errInput
					}
					return rows[n-1], true, nil
				}
			}
			res, err := Sort(cfg, in)
			if err == nil {
				res.Close()
				t.Fatalf("%s: sort succeeded", tc.name)
			}
			if stats.Snapshot().PagesWritten == 0 {
				t.Fatalf("%s: failed before writing a run: %v", tc.name, err)
			}
			sizes = append(sizes, cfg.Disk.NumPages())
		}
		if sizes[1] != sizes[0] || sizes[2] != sizes[0] {
			t.Errorf("%s: disk pages after each failed sort: %v", tc.name, sizes)
		}
	}
}

// A key column holding both INTEGER and FLOAT values is refused: the
// normalized key encodes the two kinds apart, and a stored column holds
// only one of them.
func TestSortRejectsMixedNumericKey(t *testing.T) {
	cfg, _ := newEnv(4)
	cfg.Keys = []int{0}
	rows := []value.Row{{value.NewInt(2)}, {value.Null()}, {value.NewFloat(1.5)}}
	if res, err := Sort(cfg, sliceInput(rows)); err == nil {
		res.Close()
		t.Fatal("sort of a key mixing INTEGER and FLOAT succeeded")
	}
}

// TestInputRowMayBeReused: Sort encodes each input row before it asks for
// the next, so an input may overwrite one row buffer on every call. The
// rows carry VARCHAR columns of varying length, and a three-page pool
// with tiny runs forces intermediate merge passes; the output must be the
// stable sort of copies of the rows.
func TestInputRowMayBeReused(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	rows := make([]value.Row, 2500)
	for i := range rows {
		rows[i] = value.Row{
			value.NewString(strings.Repeat("k", rnd.Intn(4)) + string(rune('a'+rnd.Intn(26)))),
			value.NewInt(int64(rnd.Intn(30))),
			value.NewString(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("p", i%11))),
			value.NewInt(int64(i)),
		}
	}
	want := make([]value.Row, len(rows))
	for i, r := range rows {
		want[i] = r.Clone()
	}
	keys, desc := []int{0, 1}, []bool{false, true}
	sort.SliceStable(want, func(i, j int) bool { return value.CompareRows(want[i], want[j], keys, desc) < 0 })

	cfg, stats := newEnv(3) // fan-in 2
	cfg.Keys, cfg.Desc = keys, desc
	cfg.BufferBytes = 512
	buf := make(value.Row, 4)
	next := 0
	res, err := Sort(cfg, func() (value.Row, bool, error) {
		if next == len(rows) {
			return nil, false, nil
		}
		copy(buf, rows[next])
		next++
		return buf, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := drain(t, res)
	if len(got) != len(want) {
		t.Fatalf("%d rows out, want %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d is %v, want %v", i, got[i], want[i])
			}
		}
	}
	// 2,500 rows of some 30 bytes in 512-byte runs: far more runs than the
	// fan-in, so the rows crossed intermediate passes.
	if s := stats.Snapshot(); s.PagesWritten <= int64(len(res.pages)) {
		t.Fatalf("no intermediate merge pass: %d pages written, %d in the final runs", s.PagesWritten, len(res.pages))
	}
}

// boundaryRows returns n rows whose records vary in length: an integer
// key, the arrival serial and a VARCHAR of 1 to 14 bytes.
func boundaryRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64((i * 7919) % 500)),
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("%s%d", strings.Repeat("v", i%13), i%97)),
		}
	}
	return rows
}

// TestSortRunBoundariesUnchanged pins a sort's paper units for fixed
// inputs: a run ends when its encoded records reach BufferBytes, so its
// boundaries, and with them every temp page written and fetched, follow
// the records alone, however the sorter holds them in memory. The figures
// are those of the sorter that held runs as decoded rows: with a
// three-page pool and 2 KB runs (intermediate passes), an eight-page pool
// and 4 KB runs (one merge of several runs), and one run.
func TestSortRunBoundariesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		capacity, bufferBytes int
		written, fetched      int64
	}{
		{3, 2048, 107, 107},
		{8, 4096, 44, 44},
		{16, 0, 19, 19},
	} {
		cfg, stats := newEnv(tc.capacity)
		cfg.Keys = []int{0, 2}
		cfg.BufferBytes = tc.bufferBytes
		res, err := Sort(cfg, sliceInput(boundaryRows(3000)))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, res)
		res.Close()
		s := stats.Snapshot()
		if s.PagesWritten != tc.written || s.PageFetches != tc.fetched || s.RSICalls != 6000 {
			t.Errorf("pool %d, runs of %d bytes: %d pages written, %d fetched, %d RSI calls; want %d, %d and 6000",
				tc.capacity, tc.bufferBytes, s.PagesWritten, s.PageFetches, s.RSICalls, tc.written, tc.fetched)
		}
	}
}

// TestConcurrentSortsShareNoBuffers: sorts take their run-generation arena
// and entries from a pool shared by every sort, and give them back only
// once no merger reads them. Goroutines run sorts side by side — spilling
// ones with intermediate merge passes, one-run ones, empty ones and ones
// whose input fails after some rows — and read their results while other
// sorts generate runs; each must match the stable sort of its input, and
// closing a result twice must not give its buffers back twice. Run it
// with -race.
func TestConcurrentSortsShareNoBuffers(t *testing.T) {
	const workers, sorts = 4, 12
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				rnd := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; i < sorts; i++ {
					cfg, _ := newEnv(3 + rnd.Intn(6)) // small pools: fan-in 2 to 7
					cfg.Keys = []int{2, 0}
					cfg.BufferBytes = 256 << rnd.Intn(6)
					rows := randomRows(rnd, []int{0, 1, 40, 700}[i%4])
					failAfter := -1
					if i%3 == 2 && len(rows) > 1 {
						failAfter = rnd.Intn(len(rows))
					}
					n := 0
					res, err := Sort(cfg, func() (value.Row, bool, error) {
						if n == failAfter {
							return nil, false, errInput
						}
						if n == len(rows) {
							return nil, false, nil
						}
						n++
						return rows[n-1], true, nil
					})
					if failAfter >= 0 {
						if !errors.Is(err, errInput) {
							return fmt.Errorf("worker %d sort %d: failing input gave %v", w, i, err)
						}
						continue
					}
					if err != nil {
						return err
					}
					var got []value.Row
					for {
						row, ok, err := res.Next()
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						got = append(got, row.Clone())
					}
					res.Close()
					res.Close()
					want := append([]value.Row(nil), rows...)
					sort.SliceStable(want, func(a, b int) bool {
						return value.CompareRows(want[a], want[b], cfg.Keys, nil) < 0
					})
					if len(got) != len(want) {
						return fmt.Errorf("worker %d sort %d: %d rows, want %d", w, i, len(got), len(want))
					}
					for j := range got {
						if value.CompareRows(got[j], want[j], []int{0, 1, 2}, nil) != 0 {
							return fmt.Errorf("worker %d sort %d: row %d is %v, want %v", w, i, j, got[j], want[j])
						}
					}
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
