// Package xsort is the sorting component of Section 5: it sorts tuple
// streams "into a temporary list" through the buffer pool, with run
// generation bounded by the buffer size and multi-pass merging, so that a
// sort's measured page I/O corresponds to the optimizer's C-sort model
// (write + read of TEMPPAGES per pass).
package xsort

import (
	"fmt"
	"sort"

	"systemr/internal/governor"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Input supplies the rows to sort, one per call; ok=false ends the stream.
type Input func() (value.Row, bool, error)

// Config tunes a sort.
type Config struct {
	Pool *storage.BufferPool
	Disk *storage.Disk
	// Keys are the column positions to order by; Desc flips per-key
	// direction (shorter Desc = ascending for the remainder).
	Keys []int
	Desc []bool
	// BufferBytes bounds in-memory run size; 0 derives it from the pool
	// capacity (the paper's sorts were bounded by the same buffer).
	BufferBytes int
	// CountRSI, when set, charges one RSI call per tuple written into the
	// temporary list and one per tuple delivered from it, mirroring the cost
	// model's CPU term for sorts.
	CountRSI bool
	// Stmt, when non-nil, is the statement's own I/O accumulator: the sort's
	// temp-page writes, re-fetches, and RSI charges count into it in addition
	// to the pool's DB-global aggregate.
	Stmt *storage.IOStats
	// Budget, when non-nil, is the statement's execution governor; merge
	// passes and temp-list delivery tick it so a canceled statement aborts
	// even after its input scans have drained.
	Budget *governor.Budget
}

// Result streams the sorted rows from the temporary list.
type Result struct {
	cfg     Config
	readers []*runReader
	heap    []heapEntry
	rows    int
	pages   []storage.PageID
	closed  bool
}

type run struct {
	seg   *storage.Segment
	pages []storage.PageID
	rows  int
}

type runReader struct {
	disk   *storage.Disk
	io     storage.StmtIO
	budget *governor.Budget
	pages  []storage.PageID
	pi     int
	slot   uint16
	page   *storage.Page
	left   int       // rows of the run not yet read
	chunk  value.Row // unused tail of the shared chunk rows are decoded into
	width  int       // columns of the last row read
}

type heapEntry struct {
	row value.Row
	src int
}

// Sort consumes the input, sorts it, and returns a Result for streaming the
// ordered rows. The temporary list always materializes through the buffer
// pool — System R sorts into temporary lists even when the data would fit in
// memory.
func Sort(cfg Config, in Input) (*Result, error) {
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = cfg.Pool.Capacity() * storage.PageSize
	}
	fanin := cfg.Pool.Capacity() - 1
	if fanin < 2 {
		fanin = 2
	}

	// Phase 1: run generation.
	var runs []*run
	var buf []value.Row
	bufBytes := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		sortRows(buf, cfg.Keys, cfg.Desc)
		r, err := writeRun(cfg, buf, true)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		buf = buf[:0]
		bufBytes = 0
		return nil
	}
	for {
		if err := cfg.Budget.Tick(); err != nil {
			return nil, err
		}
		row, ok, err := in()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, row)
		bufBytes += rowBytes(row)
		if bufBytes >= cfg.BufferBytes {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		// Empty input: still produce an (empty) result.
		return &Result{cfg: cfg}, nil
	}

	// Phase 2: reduce the run count to the merge fan-in with intermediate
	// passes (each pass rewrites the merged rows into a new run).
	for len(runs) > fanin {
		var next []*run
		for i := 0; i < len(runs); i += fanin {
			end := i + fanin
			if end > len(runs) {
				end = len(runs)
			}
			merged, err := mergeRuns(cfg, runs[i:end])
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}

	// Phase 3: stream the final merge.
	res := &Result{cfg: cfg}
	for _, r := range runs {
		res.pages = append(res.pages, r.pages...)
		rd := newRunReader(cfg, r)
		res.readers = append(res.readers, rd)
		row, ok, err := rd.next()
		if err != nil {
			return nil, err
		}
		if ok {
			res.push(heapEntry{row: row, src: len(res.readers) - 1})
		}
	}
	return res, nil
}

func rowBytes(r value.Row) int { return storage.EncodedSize(r) }

func sortRows(rows []value.Row, keys []int, desc []bool) {
	sort.SliceStable(rows, func(i, j int) bool {
		return value.CompareRows(rows[i], rows[j], keys, desc) < 0
	})
}

// writeRun materializes sorted rows into a fresh temp segment, charging page
// writes (and optionally RSI calls) to the pool.
func writeRun(cfg Config, rows []value.Row, countRSI bool) (*run, error) {
	seg := storage.NewSegment(-1, cfg.Disk)
	var enc []byte // one encode buffer for the whole run: Insert copies the record
	for _, row := range rows {
		if err := cfg.Budget.Tick(); err != nil {
			return nil, err
		}
		enc = storage.AppendEncodedRow(enc[:0], row)
		if _, err := seg.Insert(1, enc); err != nil {
			return nil, fmt.Errorf("xsort: writing temporary list: %w", err)
		}
		if countRSI && cfg.CountRSI {
			cfg.io().AddRSICall()
		}
	}
	pages := seg.Pages()
	for _, p := range pages {
		cfg.io().MarkWritten(p)
	}
	return &run{seg: seg, pages: pages, rows: len(rows)}, nil
}

// mergeRuns merges several sorted runs into one new run (an intermediate
// sort pass: pages of the inputs are fetched, pages of the output written).
func mergeRuns(cfg Config, in []*run) (*run, error) {
	readers := make([]*runReader, len(in))
	var heap []heapEntry
	push := func(e heapEntry) { heap = heapPush(heap, e, cfg.Keys, cfg.Desc) }
	for i, r := range in {
		readers[i] = newRunReader(cfg, r)
		row, ok, err := readers[i].next()
		if err != nil {
			return nil, err
		}
		if ok {
			push(heapEntry{row: row, src: i})
		}
	}
	var out []value.Row
	for len(heap) > 0 {
		if err := cfg.Budget.Tick(); err != nil {
			return nil, err
		}
		var e heapEntry
		heap, e = heapPop(heap, cfg.Keys, cfg.Desc)
		out = append(out, e.row)
		row, ok, err := readers[e.src].next()
		if err != nil {
			return nil, err
		}
		if ok {
			heap = heapPush(heap, heapEntry{row: row, src: e.src}, cfg.Keys, cfg.Desc)
		}
	}
	for _, r := range in {
		releaseRun(cfg, r)
	}
	return writeRun(cfg, out, false)
}

func releaseRun(cfg Config, r *run) {
	for _, p := range r.pages {
		cfg.Pool.Evict(p)
	}
}

// io returns the statement-scoped accounting view of the pool.
func (cfg Config) io() storage.StmtIO { return cfg.Pool.View(cfg.Stmt) }

func newRunReader(cfg Config, r *run) *runReader {
	return &runReader{disk: cfg.Disk, io: cfg.io(), budget: cfg.Budget, pages: r.pages, left: r.rows}
}

// readChunkRows is how many read-back rows share one allocation.
const readChunkRows = 256

// decode reads one record of the run into the shared chunk, starting a new
// chunk — sized for at most readChunkRows of the rows still to come, so the
// last chunk of a run is exact — when the current one has no room for a row
// as wide as the last. Rows are never overwritten once returned, so
// consumers may retain them; each is capacity-clipped, so appending to one
// cannot reach its neighbour.
func (rd *runReader) decode(rec []byte) (value.Row, error) {
	if cap(rd.chunk) < rd.width {
		rd.chunk = make(value.Row, 0, min(rd.left, readChunkRows)*rd.width)
	}
	out, err := storage.AppendDecodedRow(rd.chunk, rec)
	if err != nil {
		return nil, err
	}
	rd.chunk = out[len(out):]
	rd.width = len(out)
	rd.left--
	return out[:len(out):len(out)], nil
}

// next reads the following row of the run, fetching temp pages through the
// buffer pool.
func (rd *runReader) next() (value.Row, bool, error) {
	for {
		if err := rd.budget.Tick(); err != nil {
			return nil, false, err
		}
		if rd.page == nil || rd.slot >= rd.page.NumSlots() {
			if rd.pi >= len(rd.pages) {
				return nil, false, nil
			}
			page, err := rd.io.Fetch(rd.pages[rd.pi])
			if err != nil {
				return nil, false, err
			}
			rd.page = page
			rd.pi++
			rd.slot = 0
			continue
		}
		rec, _, ok := rd.page.Record(rd.slot)
		rd.slot++
		if !ok {
			continue
		}
		row, err := rd.decode(rec)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

// Binary min-heap over heapEntry, ordered by the sort keys then source index
// (stability across runs).

func heapLess(a, b heapEntry, keys []int, desc []bool) bool {
	if c := value.CompareRows(a.row, b.row, keys, desc); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

func heapPush(h []heapEntry, e heapEntry, keys []int, desc []bool) []heapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p], keys, desc) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func heapPop(h []heapEntry, keys []int, desc []bool) ([]heapEntry, heapEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && heapLess(h[l], h[smallest], keys, desc) {
			smallest = l
		}
		if r < len(h) && heapLess(h[r], h[smallest], keys, desc) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return h, top
}

func (res *Result) push(e heapEntry) {
	res.heap = heapPush(res.heap, e, res.cfg.Keys, res.cfg.Desc)
}

// Next returns the next row in sorted order.
func (res *Result) Next() (value.Row, bool, error) {
	if len(res.heap) == 0 {
		return nil, false, nil
	}
	if err := res.cfg.Budget.Tick(); err != nil {
		return nil, false, err
	}
	var e heapEntry
	res.heap, e = heapPop(res.heap, res.cfg.Keys, res.cfg.Desc)
	row, ok, err := res.readers[e.src].next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		res.push(heapEntry{row: row, src: e.src})
	}
	res.rows++
	if res.cfg.CountRSI {
		res.cfg.io().AddRSICall()
	}
	return e.row, true, nil
}

// Close releases the temporary pages from the buffer pool.
func (res *Result) Close() {
	if res.closed {
		return
	}
	res.closed = true
	for _, p := range res.pages {
		res.cfg.Pool.Evict(p)
	}
}
