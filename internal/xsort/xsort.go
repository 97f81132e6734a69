// Package xsort is the sorting component of Section 5: it sorts tuple
// streams "into a temporary list" through the buffer pool, with run
// generation bounded by the buffer size and multi-pass merging, so that a
// sort's measured page I/O corresponds to the optimizer's C-sort model
// (write + read of TEMPPAGES per pass).
//
// Rows are ordered by normalized keys (Graefe, "Implementing Sorting in
// Database Systems", ACM CSUR 2006): each row's sort-key columns are
// encoded once into a byte string whose byte order is value.CompareRows'
// order, so run generation sorts small (key, arrival) entries and the
// merges compare bytes, never values.
//
// Memory: run generation encodes rows into a byte arena and sorts small
// entries over it. A sort takes both from a free list and gives them back
// once no merger reads the arena — when its Result closes, or when it fails
// or finds its input empty — so later sorts reuse the room an earlier one
// grew instead of regrowing their own by doubling, whenever the garbage
// collector runs. The list keeps at most GOMAXPROCS arena-and-entries
// pairs, each of at most bufMaxBytes.
package xsort

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"systemr/internal/freelist"
	"systemr/internal/governor"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// Input supplies the rows to sort, one per call; ok=false ends the stream.
// Sort encodes each row before it asks for the next, so a row need stay
// valid only until the following call: an input may reuse one row.
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
	// Stmt, when non-nil, is the statement's own I/O accumulator: the sort's
	// temp-page writes, re-fetches, and RSI charges count into it in addition
	// to the pool's DB-global aggregate.
	Stmt *storage.IOStats
	// Budget, when non-nil, is the statement's execution governor; merge
	// passes and temp-list delivery tick it so a canceled statement aborts
	// even after its input scans have drained.
	Budget *governor.Budget
}

// Result streams the sorted rows from the temporary list. Each row Next
// returns is decoded into its run's one reused row, so it stays valid only
// until the following Next or Close; a caller that keeps it copies it.
type Result struct {
	cfg    Config
	merge  merger
	pages  []storage.PageID
	buf    *buffers // run generation's, whose arena the merge reads
	closed bool
}

type run struct {
	seg   *storage.Segment
	pages []storage.PageID
}

// entry is one row of the run being generated, in the run's byte arena:
// its normalized key is arena[off:key] and its encoded record
// arena[key:end]. Rows enter the arena in arrival order, so off also
// breaks ties: an unstable sort of entries is a stable sort of rows.
type entry struct {
	off, key, end uint32
}

// firstRows is how many rows like the first the arena and the entries
// start with room for; past it they grow by doubling.
const firstRows = 4

// buffers are a sort's run-generation arena and entries (see the package
// comment), kept as grown between the sorts that take them from bufs.
type buffers struct {
	arena   []byte
	entries []entry
}

// bufMaxBytes caps the buffers bufs keeps. A sort's pair grows to about
// four times its BufferBytes (a little over 4 MiB under a 256-page pool's
// 1 MiB runs), so this keeps the pairs of pools up to 512 pages; a sort
// that grew more leaves its buffers to the garbage collector.
const bufMaxBytes = 8 << 20

var bufs = freelist.New(bufMaxBytes, func(b *buffers) int {
	return cap(b.arena) + cap(b.entries)*int(unsafe.Sizeof(entry{}))
})

// put keeps arena and entries in b, emptied, and returns b to the free
// list. The caller must not read either again.
func (b *buffers) put(arena []byte, entries []entry) {
	b.arena, b.entries = arena[:0], entries[:0]
	bufs.Put(b)
}

// Sort consumes the input, sorts it, and returns a Result for streaming the
// ordered rows. The temporary list always materializes through the buffer
// pool — System R sorts into temporary lists even when the data would fit in
// memory. Every tuple written into the temporary list by run generation and
// every tuple delivered from it is charged one RSI call, mirroring the cost
// model's CPU term for sorts. A sort that fails gives every temp page it
// wrote back to the disk, and its buffers back to the free list.
func Sort(cfg Config, in Input) (_ *Result, err error) {
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = cfg.Pool.Capacity() * storage.PageSize
	}
	fanin := cfg.Pool.Capacity() - 1
	if fanin < 2 {
		fanin = 2
	}
	ord := order{keys: cfg.Keys, desc: cfg.Desc}

	// Phase 1: run generation. Each row is encoded on arrival — its
	// normalized key, then its record — into one byte arena that every run
	// reuses, so the input may reuse its row. A run ends when its records
	// reach BufferBytes; keys never count, so run boundaries — and with them
	// every temp page — follow the records alone.
	buf := bufs.Get()
	var (
		runs     []*run // the runs this sort holds
		entries  = buf.entries
		arena    = buf.arena
		recBytes int           // the current run's record bytes
		rowLen   int           // the arena bytes the last row took
		kindBuf  [8]value.Kind // holds kinds for up to eight keys
	)
	defer func() {
		if err != nil {
			for _, r := range runs {
				releaseRun(cfg, r)
			}
			buf.put(arena, entries)
		}
	}()
	kinds := append(kindBuf[:0], make([]value.Kind, len(cfg.Keys))...)
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		slices.SortFunc(entries, func(a, b entry) int {
			if c := bytes.Compare(arena[a.off:a.key], arena[b.off:b.key]); c != 0 {
				return c
			}
			return cmp.Compare(a.off, b.off)
		})
		r, err := writeRun(cfg, arena, entries)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		entries, arena, recBytes = entries[:0], arena[:0], 0
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
		if err := checkKinds(kinds, row, cfg.Keys); err != nil {
			return nil, err
		}
		// Both slices grow by doubling: append's 1.25× steps for a long
		// slice would copy a run's arena several times over. The first row
		// sizes them, so a sort of a few rows allocates each once, unless
		// the buffers an earlier sort grew have room already.
		if rowLen == 0 {
			var key [64]byte
			rowLen = len(ord.appendKey(key[:0], row)) + storage.EncodedSize(row)
		}
		if cap(arena)-len(arena) < rowLen {
			arena = slices.Grow(arena, max(len(arena), firstRows*rowLen))
		}
		if len(entries) == cap(entries) {
			entries = slices.Grow(entries, max(len(entries), firstRows))
		}
		off := len(arena)
		arena = ord.appendKey(arena, row)
		key := len(arena)
		arena = storage.AppendEncodedRow(arena, row)
		if len(arena) > math.MaxUint32 {
			return nil, fmt.Errorf("xsort: a run's keys and records exceed 4 GiB; lower BufferBytes")
		}
		entries = append(entries, entry{off: uint32(off), key: uint32(key), end: uint32(len(arena))})
		rowLen = len(arena) - off
		if recBytes += len(arena) - key; recBytes >= cfg.BufferBytes {
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
		buf.put(arena, entries)
		return &Result{cfg: cfg}, nil
	}

	// Phase 2: reduce the run count to the merge fan-in with intermediate
	// passes (each pass rewrites the merged rows into a new run).
	// A merge releases its inputs, so runs keeps only those not yet merged
	// and the pass's outputs.
	for len(runs) > fanin {
		var next []*run
		for len(runs) > 0 {
			k := min(fanin, len(runs))
			merged, err := mergeRuns(cfg, ord, runs[:k], arena)
			if err != nil {
				runs = append(next, runs...)
				return nil, err
			}
			next = append(next, merged)
			runs = runs[k:]
		}
		runs = next
	}

	// Phase 3: stream the final merge, which reads the arena until the
	// result closes.
	buf.arena, buf.entries = arena, entries
	res := &Result{cfg: cfg, buf: buf}
	for _, r := range runs {
		res.pages = append(res.pages, r.pages...)
	}
	if err := res.merge.open(cfg, ord, runs, arena); err != nil {
		return nil, err
	}
	return res, nil
}

// checkKinds records, per sort key, the numeric kind its values have had,
// and rejects a row whose key holds the other one. The key encodes INTEGER
// and FLOAT differently, so they only order correctly apart; a stored
// column holds one numeric kind (the RSS coerces every value it stores to
// the column's type), so a mix is a bug, not an input to order.
func checkKinds(kinds []value.Kind, row value.Row, keys []int) error {
	for i, c := range keys {
		k := row[c].Kind
		if k != value.KindInt && k != value.KindFloat {
			continue
		}
		if kinds[i] == value.KindNull {
			kinds[i] = k
		} else if kinds[i] != k {
			return fmt.Errorf("xsort: sort key %d holds both %s and %s values", i, kinds[i], k)
		}
	}
	return nil
}

// order is the sort order: the key column positions and their directions.
type order struct {
	keys []int
	desc []bool
}

// Normalized-key tags: NULL sorts before every number, and every number
// before every string, as value.Compare ranks them.
const (
	tagNull   = 0x01
	tagNumber = 0x02
	tagString = 0x03
)

// appendKey appends row's normalized key to dst: each key column's encoding
// in turn, its bytes inverted when the column sorts descending. Every
// column's encoding is prefix-free, so comparing two keys byte by byte
// compares them column by column, and bytes.Compare of two keys is
// value.CompareRows of their rows.
//
//   - NULL is its tag alone.
//   - INTEGER is the sign-flipped big-endian 64-bit value.
//   - FLOAT is its ordered bits: the sign bit flipped for positives, every
//     bit for negatives, with −0 folded into +0 and every NaN below −Inf.
//   - VARCHAR is its bytes with 0x00 escaped as 0x00 0xFF, then the
//     terminator 0x00 0x01, which sorts below any further byte.
func (o order) appendKey(dst []byte, row value.Row) []byte {
	for i, c := range o.keys {
		start := len(dst)
		v := row[c]
		switch v.Kind {
		case value.KindNull:
			dst = append(dst, tagNull)
		case value.KindInt:
			dst = append(dst, tagNumber)
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int)^(1<<63))
		case value.KindFloat:
			dst = append(dst, tagNumber)
			dst = binary.BigEndian.AppendUint64(dst, floatBits(v.Float))
		default: // value.Compare orders every other kind as a string
			dst = append(dst, tagString)
			for j := 0; j < len(v.Str); j++ {
				if b := v.Str[j]; b == 0 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, b)
				}
			}
			dst = append(dst, 0x00, 0x01)
		}
		if i < len(o.desc) && o.desc[i] {
			for j := start; j < len(dst); j++ {
				dst[j] = ^dst[j]
			}
		}
	}
	return dst
}

// floatBits maps f to an unsigned integer with the order value.Compare
// gives floats: NaN (all payloads equal) lowest, then −Inf up to +Inf,
// with −0 equal to +0.
func floatBits(f float64) uint64 {
	switch {
	case math.IsNaN(f):
		return 0 // below −Inf's ^bits, 0x000FFFFFFFFFFFFF
	case f == 0:
		f = 0 // folds −0 into +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// newRun starts a run in a fresh temp segment.
func newRun(cfg Config) *run {
	return &run{seg: storage.NewSegment(-1, cfg.Disk)}
}

// insert appends a record to the run (Insert copies it).
func (r *run) insert(rec []byte) error {
	if _, err := r.seg.Insert(1, rec); err != nil {
		return fmt.Errorf("xsort: writing temporary list: %w", err)
	}
	return nil
}

// finish charges the run's page writes to the pool.
func (r *run) finish(cfg Config) *run {
	r.pages = r.seg.Pages()
	for _, p := range r.pages {
		cfg.io().MarkWritten(p)
	}
	return r
}

// writeRun writes a generated run: the arena's records in the order of the
// sorted entries, one RSI call per tuple written into the temporary list.
func writeRun(cfg Config, arena []byte, sorted []entry) (*run, error) {
	r := newRun(cfg)
	fail := func(err error) (*run, error) {
		releaseRun(cfg, r)
		return nil, err
	}
	for _, e := range sorted {
		if err := cfg.Budget.Tick(); err != nil {
			return fail(err)
		}
		if err := r.insert(arena[e.key:e.end]); err != nil {
			return fail(err)
		}
		cfg.io().AddRSICall()
	}
	return r.finish(cfg), nil
}

// mergeRuns merges several sorted runs into one new run (an intermediate
// sort pass: pages of the inputs are fetched, pages of the output written).
// Each merged record is copied straight from its page into the output run,
// so the pass holds one read-back row per input run.
func mergeRuns(cfg Config, ord order, in []*run, slab []byte) (*run, error) {
	var m merger
	if err := m.open(cfg, ord, in, slab); err != nil {
		return nil, err
	}
	out := newRun(cfg)
	fail := func(err error) (*run, error) {
		releaseRun(cfg, out)
		return nil, err
	}
	for {
		if err := cfg.Budget.Tick(); err != nil {
			return fail(err)
		}
		rd, err := m.next()
		if err != nil {
			return fail(err)
		}
		if rd == nil {
			break
		}
		if err := out.insert(rd.rec); err != nil {
			return fail(err)
		}
	}
	for _, r := range in {
		releaseRun(cfg, r)
	}
	return out.finish(cfg), nil
}

// releaseRun gives a run's pages back to the disk: a merged run's, or
// those of a run the sort gives up.
func releaseRun(cfg Config, r *run) {
	freePages(cfg, r.seg.Pages())
}

// freePages evicts temp pages from the pool and returns them to the disk
// for later runs to reuse.
func freePages(cfg Config, pages []storage.PageID) {
	for _, p := range pages {
		cfg.Pool.Evict(p)
		cfg.Disk.FreePage(p)
	}
}

// io returns the statement-scoped accounting view of the pool.
func (cfg Config) io() storage.StmtIO { return cfg.Pool.View(cfg.Stmt) }

// merger merges sorted runs: a binary min-heap of run readers ordered by
// their current row's normalized key, ties going to the earlier run so the
// merge is stable across runs.
type merger struct {
	readers []*runReader
	heap    []int // indices into readers
	// lent: the top reader's row was returned by next, so that reader
	// advances — over the row — only when next is called again.
	lent bool
	// strs is the arena every reader's decoded strings are carved from:
	// carved bytes are never rewritten, so a row's strings outlive the
	// reader's next row.
	strs storage.Strings
}

// open starts a reader on each run and heaps those with a first row. The
// readers' key buffers start as equal, capacity-clipped shares of slab —
// run generation's arena, free once the runs are written — so only a key
// longer than its share allocates.
func (m *merger) open(cfg Config, ord order, runs []*run, slab []byte) error {
	share := cap(slab) / len(runs)
	for i, r := range runs {
		rd := &runReader{io: cfg.io(), budget: cfg.Budget, ord: ord, pages: r.pages,
			key: slab[i*share : i*share : (i+1)*share]}
		m.readers = append(m.readers, rd)
		ok, err := rd.advance(&m.strs)
		if err != nil {
			return err
		}
		if ok {
			m.heap = append(m.heap, i)
			m.up(len(m.heap) - 1)
		}
	}
	return nil
}

func (m *merger) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if c := bytes.Compare(m.readers[a].key, m.readers[b].key); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *merger) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(i, p) {
			return
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *merger) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(m.heap) {
			return
		}
		least := l
		if r := l + 1; r < len(m.heap) && m.less(r, l) {
			least = r
		}
		if !m.less(least, i) {
			return
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}

// next returns the reader holding the least current row, or nil when every
// run is exhausted. The row stays valid until the following call: only then
// does its reader advance in place, re-entering the heap from the top or
// leaving it when its run is exhausted.
func (m *merger) next() (*runReader, error) {
	if m.lent {
		m.lent = false
		ok, err := m.readers[m.heap[0]].advance(&m.strs)
		if err != nil {
			return nil, err
		}
		if !ok {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	if len(m.heap) == 0 {
		return nil, nil
	}
	m.lent = true
	return m.readers[m.heap[0]], nil
}

// runReader reads a run back through the buffer pool, decoding each
// record over the last: one row per reader, whatever the run's length.
type runReader struct {
	io     storage.StmtIO
	budget *governor.Budget
	ord    order
	pages  []storage.PageID
	pi     int
	slot   uint16
	page   *storage.Page
	rec    []byte    // the current row's record, in its temp page
	row    value.Row // the current row, decoded from rec
	key    []byte    // the current row's normalized key, re-encoded per row
}

// advance reads the following row of the run into row and key, fetching
// temp pages through the buffer pool and carving the row's strings from
// strs.
func (rd *runReader) advance(strs *storage.Strings) (bool, error) {
	for {
		if err := rd.budget.Tick(); err != nil {
			return false, err
		}
		if rd.page == nil || rd.slot >= rd.page.NumSlots() {
			if rd.pi >= len(rd.pages) {
				return false, nil
			}
			page, err := rd.io.Fetch(rd.pages[rd.pi])
			if err != nil {
				return false, err
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
		row, err := storage.AppendDecodedRow(rd.row[:0], rec, strs)
		if err != nil {
			return false, err
		}
		rd.rec, rd.row = rec, row
		rd.key = rd.ord.appendKey(rd.key[:0], row)
		return true, nil
	}
}

// Next returns the next row in sorted order, valid until the following Next
// or Close.
func (res *Result) Next() (value.Row, bool, error) {
	if len(res.merge.heap) == 0 {
		return nil, false, nil
	}
	if err := res.cfg.Budget.Tick(); err != nil {
		return nil, false, err
	}
	rd, err := res.merge.next()
	if err != nil || rd == nil {
		return nil, false, err
	}
	res.cfg.io().AddRSICall()
	return rd.row, true, nil
}

// Close releases the temporary pages from the buffer pool and gives them
// back to the disk, and returns the sort's buffers to the free list once the
// merge that reads them is dropped.
func (res *Result) Close() {
	if res.closed {
		return
	}
	res.closed = true
	freePages(res.cfg, res.pages)
	res.merge = merger{}
	if res.buf != nil {
		res.buf.put(res.buf.arena, res.buf.entries)
		res.buf = nil
	}
}
