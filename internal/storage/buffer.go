package storage

import (
	"sync"
	"sync/atomic"
)

// IOStats counts the two quantities of the paper's cost formula.
//
//	COST = PAGE FETCHES + W * (RSI CALLS)
//
// PageFetches is incremented on every buffer-pool miss (a simulated I/O);
// LogicalReads counts all page accesses including buffer hits. RSI calls are
// counted by the rss package into the same struct so a single snapshot
// captures a statement's measured cost.
//
// Two kinds of IOStats exist. The buffer pool owns one DB-global aggregate
// that every access is counted into. In addition, each executing statement
// carries its own accumulator, threaded through a StmtIO view, so that
// per-statement measurements (operator fetch attribution, the governor's
// fetch budget, ExecStats) are exact under concurrency instead of absorbing
// other statements' I/O.
//
// All counters are atomics: the per-tuple/per-page accounting path takes no
// locks, and every method is nil-receiver-safe, so paths without a
// statement accumulator pay a single pointer comparison.
type IOStats struct {
	pageFetches  atomic.Int64
	logicalReads atomic.Int64
	rsiCalls     atomic.Int64
	pagesWritten atomic.Int64
	// MVCC visibility accounting: versionsScanned counts every heap version a
	// scan examined; versionsSkipped the subset the caller's snapshot could
	// not see (dead or not-yet-visible versions — the per-statement price of
	// multi-versioning).
	versionsScanned atomic.Int64
	versionsSkipped atomic.Int64
}

// Snapshot returns a copy of the counters. Counters are read individually
// (monotonic atomics, not a sealed set); a statement's own accumulator is
// only ever written by the goroutine executing that statement, so snapshots
// of it are exact.
func (s *IOStats) Snapshot() IOStatsSnapshot {
	if s == nil {
		return IOStatsSnapshot{}
	}
	return IOStatsSnapshot{
		PageFetches:     s.pageFetches.Load(),
		LogicalReads:    s.logicalReads.Load(),
		RSICalls:        s.rsiCalls.Load(),
		PagesWritten:    s.pagesWritten.Load(),
		VersionsScanned: s.versionsScanned.Load(),
		VersionsSkipped: s.versionsSkipped.Load(),
	}
}

// FetchCount returns the current page-fetch counter alone, cheaper than a
// full snapshot.
func (s *IOStats) FetchCount() int64 {
	if s == nil {
		return 0
	}
	return s.pageFetches.Load()
}

// Reset zeroes the counters.
func (s *IOStats) Reset() {
	if s == nil {
		return
	}
	s.pageFetches.Store(0)
	s.logicalReads.Store(0)
	s.rsiCalls.Store(0)
	s.pagesWritten.Store(0)
	s.versionsScanned.Store(0)
	s.versionsSkipped.Store(0)
}

// AddVersionsScanned records heap versions examined by a scan, of which
// skipped were invisible to the scanning snapshot. Scans charge it once per
// page visit, not per version.
func (s *IOStats) AddVersionsScanned(scanned, skipped int64) {
	if s == nil {
		return
	}
	s.versionsScanned.Add(scanned)
	if skipped != 0 {
		s.versionsSkipped.Add(skipped)
	}
}

// AddRSICall records one tuple crossing the RSS interface.
func (s *IOStats) AddRSICall() {
	if s == nil {
		return
	}
	s.rsiCalls.Add(1)
}

func (s *IOStats) addRead(miss bool) {
	if s == nil {
		return
	}
	s.logicalReads.Add(1)
	if miss {
		s.pageFetches.Add(1)
	}
}

func (s *IOStats) addWrite() {
	if s == nil {
		return
	}
	s.pagesWritten.Add(1)
}

// IOStatsSnapshot is an immutable copy of IOStats.
type IOStatsSnapshot struct {
	PageFetches     int64
	LogicalReads    int64
	RSICalls        int64
	PagesWritten    int64
	VersionsScanned int64
	VersionsSkipped int64
}

// Sub returns the per-statement delta between two snapshots.
func (a IOStatsSnapshot) Sub(b IOStatsSnapshot) IOStatsSnapshot {
	return IOStatsSnapshot{
		PageFetches:     a.PageFetches - b.PageFetches,
		LogicalReads:    a.LogicalReads - b.LogicalReads,
		RSICalls:        a.RSICalls - b.RSICalls,
		PagesWritten:    a.PagesWritten - b.PagesWritten,
		VersionsScanned: a.VersionsScanned - b.VersionsScanned,
		VersionsSkipped: a.VersionsSkipped - b.VersionsSkipped,
	}
}

// Cost evaluates the paper's weighted cost for the snapshot. Page writes
// (temporary lists produced by sorts) are I/Os and count with the fetches.
func (a IOStatsSnapshot) Cost(w float64) float64 {
	return float64(a.PageFetches+a.PagesWritten) + w*float64(a.RSICalls)
}

// BufferPool is an LRU cache of page frames in front of the Disk. Its
// capacity (in pages) is the "System R buffer" that Table 2's alternative
// cost formulas refer to: a retrieved set that fits in the buffer is fetched
// once per page; one that does not refits a fetch per access.
//
// The recency list is intrusive: up to capacity frames, each linked to its
// neighbours by index, and a table from page ID to frame. Once every frame
// has been handed out, neither a hit nor a miss allocates.
type BufferPool struct {
	mu       sync.Mutex // guards the frames, the table, injector and fetchN — never stats
	disk     *Disk
	capacity int
	stats    *IOStats
	frames   []frame // frames handed out so far; at most capacity
	// frameOf[id] is 1 + the index of the frame holding page id, or 0 when
	// id is not resident. Page IDs are dense (Disk allocates them in order),
	// so a slice indexed by ID replaces a map and never rehashes.
	frameOf   []int32
	head      int32         // most recently used frame; -1 when empty
	tail      int32         // least recently used frame: the next victim
	free      int32         // frames released by Evict, chained through next; -1 when none
	resident  int           // pages currently buffered
	injector  FaultInjector // consulted by Fetch on misses; nil = no faults
	fetchN    int64         // Fetch misses since the injector was installed
	evictions atomic.Int64  // capacity evictions (not explicit Evict calls)
	openScans atomic.Int64  // RSI scans open over this pool
}

// frame is one buffer slot: the page it holds and its neighbours in recency
// order (frame indexes, -1 at either end).
type frame struct {
	id         PageID
	prev, next int32
}

// NewBufferPool creates a pool of the given page capacity over disk,
// accounting into stats.
func NewBufferPool(disk *Disk, capacity int, stats *IOStats) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{disk: disk, capacity: capacity, stats: stats, head: -1, tail: -1, free: -1}
}

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Stats returns the pool's DB-global aggregate counters. Per-statement
// measurements must not take deltas of these under concurrency — they read
// the statement's own accumulator through a StmtIO view instead.
func (bp *BufferPool) Stats() *IOStats { return bp.stats }

// Evictions returns how many pages the pool has evicted to make room (LRU
// capacity evictions; explicit Evict calls for freed temp segments are not
// counted).
func (bp *BufferPool) Evictions() int64 { return bp.evictions.Load() }

// AddOpenScans counts delta RSI scans opened (+1) or closed (-1) over the
// pool. OpenScans is the count still open: the leak ledger asserts it
// returns to zero after every statement, error and panic paths included.
func (bp *BufferPool) AddOpenScans(delta int64) { bp.openScans.Add(delta) }

// OpenScans returns the number of RSI scans currently open over the pool.
func (bp *BufferPool) OpenScans() int64 { return bp.openScans.Load() }

// Get returns the page frame for id, fetching it (a simulated I/O) if it is
// not resident. Virtual pages (B-tree nodes) return nil but are accounted
// identically. Get cannot fault; measured scan paths use Fetch instead so
// injected storage errors propagate. Accounting is global-only; statement
// paths go through a StmtIO view.
func (bp *BufferPool) Get(id PageID) *Page {
	bp.admit(nil, id, false)
	return bp.disk.page(id)
}

// Fetch is Get with fault propagation: on a miss the installed FaultInjector
// may fail the simulated I/O, in which case the page is not installed, the
// attempted fetch is still counted, and the error is returned.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	if err := bp.admit(nil, id, true); err != nil {
		return nil, err
	}
	return bp.disk.page(id), nil
}

// SetFaultInjector installs fi (nil removes injection) and resets the fetch
// index faults are scheduled against. The injector and its fetch index live
// under the pool's structural lock, so the schedule stays deterministic and
// race-free no matter how many goroutines Fetch concurrently.
func (bp *BufferPool) SetFaultInjector(fi FaultInjector) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.injector = fi
	bp.fetchN = 0
}

// Touch accounts an access to id without needing the frame. The B-tree calls
// this on every node visit.
func (bp *BufferPool) Touch(id PageID) { bp.admit(nil, id, false) }

// admit records the access in the LRU and in the stats: always the pool's
// global aggregate, and additionally the statement's accumulator when one is
// supplied. The LRU update takes the pool's one structural lock; the
// counters are atomics, so accounting itself is lock-free. Only injectable
// accesses (Fetch) consult the fault injector, so the fault schedule is
// stable no matter how many accounting-only touches interleave.
func (bp *BufferPool) admit(stmt *IOStats, id PageID, injectable bool) error {
	miss, err := bp.install(id, injectable)
	bp.stats.addRead(miss)
	stmt.addRead(miss)
	return err
}

func (bp *BufferPool) install(id PageID, injectable bool) (miss bool, err error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f := bp.lookup(id); f >= 0 {
		bp.unlink(f)
		bp.pushFront(f)
		return false, nil
	}
	if injectable && bp.injector != nil {
		bp.fetchN++
		if err := bp.injector.PageFetch(bp.fetchN, id); err != nil {
			return true, err // the failed I/O was still issued
		}
	}
	// Miss: reuse the least recently used frame if full, else a free one.
	var f int32
	switch {
	case bp.resident >= bp.capacity:
		f = bp.tail
		bp.unlink(f)
		bp.frameOf[bp.frames[f].id] = 0
		bp.resident--
		bp.evictions.Add(1)
	case bp.free >= 0:
		f = bp.free
		bp.free = bp.frames[f].next
	default:
		f = int32(len(bp.frames))
		bp.frames = append(bp.frames, frame{})
	}
	if int(id) >= len(bp.frameOf) {
		bp.frameOf = append(bp.frameOf, make([]int32, int(id)+1-len(bp.frameOf))...)
	}
	bp.frames[f].id = id
	bp.frameOf[id] = f + 1
	bp.resident++
	bp.pushFront(f)
	return true, nil
}

// lookup returns the frame holding id, or -1.
func (bp *BufferPool) lookup(id PageID) int32 {
	if int(id) >= len(bp.frameOf) {
		return -1
	}
	return bp.frameOf[id] - 1
}

// unlink removes frame f from the recency list.
func (bp *BufferPool) unlink(f int32) {
	fr := &bp.frames[f]
	if fr.prev >= 0 {
		bp.frames[fr.prev].next = fr.next
	} else {
		bp.head = fr.next
	}
	if fr.next >= 0 {
		bp.frames[fr.next].prev = fr.prev
	} else {
		bp.tail = fr.prev
	}
}

// pushFront makes frame f the most recently used.
func (bp *BufferPool) pushFront(f int32) {
	bp.frames[f].prev = -1
	bp.frames[f].next = bp.head
	if bp.head >= 0 {
		bp.frames[bp.head].prev = f
	} else {
		bp.tail = f
	}
	bp.head = f
}

// MarkWritten accounts a page write (used by sorts materializing temporary
// lists). Writes are pure write-through: the page is NOT left resident, so a
// later read of the temp page is a fetch — matching the cost model's
// write-plus-read accounting for sort passes.
func (bp *BufferPool) MarkWritten(id PageID) {
	bp.markWritten(nil, id)
}

func (bp *BufferPool) markWritten(stmt *IOStats, id PageID) {
	bp.stats.addWrite()
	stmt.addWrite()
}

// Evict drops a page from the pool (used when temp segments are freed).
func (bp *BufferPool) Evict(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f := bp.lookup(id); f >= 0 {
		bp.unlink(f)
		bp.frameOf[id] = 0
		bp.resident--
		bp.frames[f].next = bp.free
		bp.free = f
	}
}

// Resident reports whether id is currently buffered.
func (bp *BufferPool) Resident(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lookup(id) >= 0
}

// Flush empties the pool, so the next access to every page is a fetch.
// Experiments use this to start measurements from a cold buffer.
func (bp *BufferPool) Flush() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for f := bp.head; f >= 0; f = bp.frames[f].next {
		bp.frameOf[bp.frames[f].id] = 0
	}
	bp.frames = bp.frames[:0]
	bp.head, bp.tail, bp.free = -1, -1, -1
	bp.resident = 0
}
