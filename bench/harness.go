package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/metrics"
	"systemr/internal/storage"
	"systemr/internal/value"
)

// costW is the W of COST = PAGE FETCHES + W·(RSI CALLS). Every engine is
// opened with the default systemr.Config except BufferPages, so it is the
// optimizer's default.
const costW = core.DefaultW

// A tableDef is one relation as the generator describes it: schema, indexes
// and the rows, produced on demand so a 200 000-row relation is never held
// as value.Rows.
type tableDef struct {
	name    string
	cols    string
	indexes []string // complete CREATE INDEX statements, run after the load
	n       int
	row     func(i int) value.Row
}

const insertBatch = 500

// load creates, fills, indexes and analyzes defs through SQL. It returns the
// encoded size of the user rows (the denominator of space_amp) and the time
// UPDATE STATISTICS took.
func load(db *systemr.DB, defs []tableDef) (userBytes int64, statsTime time.Duration, err error) {
	var b strings.Builder
	for _, d := range defs {
		if _, err = db.Exec("CREATE TABLE " + d.name + " (" + d.cols + ")"); err != nil {
			return 0, 0, fmt.Errorf("create %s: %w", d.name, err)
		}
		for i := 0; i < d.n; {
			b.Reset()
			b.WriteString("INSERT INTO " + d.name + " VALUES ")
			for j := 0; j < insertBatch && i < d.n; i, j = i+1, j+1 {
				row := d.row(i)
				userBytes += int64(len(storage.EncodeRow(row)))
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteByte('(')
				for k, v := range row {
					if k > 0 {
						b.WriteString(", ")
					}
					b.WriteString(v.SQL())
				}
				b.WriteByte(')')
			}
			if _, err = db.Exec(b.String()); err != nil {
				return 0, 0, fmt.Errorf("load %s: %w", d.name, err)
			}
		}
		for _, ix := range d.indexes {
			if _, err = db.Exec(ix); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", ix, err)
			}
		}
	}
	t := time.Now()
	if _, err = db.Exec("UPDATE STATISTICS"); err != nil {
		return 0, 0, fmt.Errorf("update statistics: %w", err)
	}
	return userBytes, time.Since(t), nil
}

// An op is one operation of a workload's statement list. For most kinds it
// is one statement; an oltp_mixed transfer is a transaction of five.
type op struct {
	kind uint8
	text string // literal SQL, or the '?' text of a prepared kind
	args []any  // host variables of a prepared kind: non-nil, if empty, for every statement run through a systemr.Stmt
	rows int    // generator-known result rows; -1 = not checked
	sums []int64
}

// Statement classes: how a statement entered the engine. The traced pass
// reports a median latency per class (systemr.*_p50_us).
const (
	classPrepared  uint8 = iota // Stmt.Run
	classAdhoc                  // DB.Query/Txn.Query of literal text, hit or miss unknown
	classAdhocHit               // … served from the plan cache
	classAdhocMiss              // … compiled
	classDML                    // INSERT/UPDATE/DELETE through Exec
	classCommit                 // Txn.Commit
)

// A workload is one generated database plus the statement lists its clients
// replay. The same constructor builds the full-size instance and the
// ≤60-row verification copy.
type workload interface {
	tables() []tableDef
	// prepare compiles the prepared statements against the loaded database.
	prepare(db *systemr.DB) error
	// ops returns the client's statement list for the given round. Only
	// adhoc_join's differs from round to round (see adhoc_join.go); a call
	// may generate, so the lists of a pass are fetched before it is timed.
	ops(client, round int) []op
	// exec runs o through the public API, times every statement call and
	// checks generator-known answers.
	exec(c *client, o *op)
	// finish checks end-state invariants after the last pass.
	finish(db *systemr.DB, clients []*client) error
	// sizes reports row counts for the result file.
	sizes() map[string]int
}

type round struct {
	stmts int
	dur   time.Duration
}

// A client is one closed-loop caller: it issues its next statement only
// after the previous one returned.
type client struct {
	id       int
	db       *systemr.DB
	lat      []int64 // ns per statement call
	cls      []uint8 // class per statement call
	rounds   []round
	failed   int
	retries  int
	firstErr error
	// classify makes literal statements read the plan-cache hit counter
	// around the call to tell hits from misses (traced pass only: the two
	// extra counter reads are not part of the end-to-end timing).
	classify bool
	// userBytes is the net encoded size of the rows this client inserted
	// and deleted.
	userBytes int64
}

// newClient makes a client with room for about samples latency samples, so
// that a timed pass rarely grows the slices it is timing.
func newClient(id int, db *systemr.DB, samples int) *client {
	return &client{id: id, db: db, lat: make([]int64, 0, samples), cls: make([]uint8, 0, samples)}
}

// done records one finished statement call.
func (c *client) done(class uint8, start time.Time, err error) {
	c.lat = append(c.lat, int64(time.Since(start)))
	c.cls = append(c.cls, class)
	if err != nil && !retryable(err) {
		c.fail("%v", err)
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

func retryable(err error) bool {
	return errors.Is(err, systemr.ErrWriteConflict) || errors.Is(err, systemr.ErrDeadlock)
}

// query runs literal text through DB.Query and checks o's known answer.
func (c *client) query(o *op) {
	var hits int64
	if c.classify {
		hits = c.db.PlanCacheStats().Hits
	}
	t := time.Now()
	res, err := c.db.Query(o.text)
	class := classAdhoc
	if c.classify {
		class = classAdhocMiss
		if c.db.PlanCacheStats().Hits > hits {
			class = classAdhocHit
		}
	}
	c.done(class, t, err)
	if err == nil {
		c.check(o, res)
	}
}

// run executes a prepared statement with o's host variables and checks o's
// known answer.
func (c *client) run(st *systemr.Stmt, o *op) {
	t := time.Now()
	res, err := st.Run(o.args...)
	c.done(classPrepared, t, err)
	if err == nil {
		c.check(o, res)
	}
}

// check counts a result that differs from the generator's answer as a failed
// operation.
func (c *client) check(o *op, res *systemr.Result) {
	if err := checkAnswer(o, res); err != nil {
		c.fail("%v", err)
	}
}

// checkAnswer compares a result with the generator's answer: the row count
// and the sums of the leading columns.
func checkAnswer(o *op, res *systemr.Result) error {
	if o.rows >= 0 && len(res.Rows) != o.rows {
		return fmt.Errorf("%s %v: %d rows, generator says %d", o.text, o.args, len(res.Rows), o.rows)
	}
	for col, want := range o.sums {
		var got int64
		for _, r := range res.Rows {
			got += asInt(r[col])
		}
		if got != want {
			return fmt.Errorf("%s %v: column %d sums to %d, generator says %d", o.text, o.args, col, got, want)
		}
	}
	return nil
}

func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(math.Round(x))
	}
	return 0
}

// counters is the engine state the passes difference: the DB-global I/O
// ledger, buffer-pool evictions, the plan cache, and the Go allocator.
type counters struct {
	io        storage.IOStatsSnapshot
	evictions int64
	cache     systemr.PlanCacheStats
	mallocs   uint64
	bytes     uint64
	// registry holds the engine's metrics registry by instrument name: a
	// counter's or gauge's value, a histogram's sum, and under name_count a
	// histogram's observation count.
	registry map[string]float64
}

func readCounters(db *systemr.DB) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		io:        db.Pool().Stats().Snapshot(),
		evictions: db.Pool().Evictions(),
		cache:     db.PlanCacheStats(),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		registry:  make(map[string]float64),
	}
	for _, s := range db.Metrics().Snapshot() {
		c.registry[s.Name] = s.Value
		if s.Kind == metrics.KindHistogram {
			c.registry[s.Name+"_count"] = float64(s.Count)
		}
	}
	return c
}

// pass is what one run of the clients' lists measured.
type pass struct {
	wall          time.Duration
	stmts         int
	before, after counters
}

// runPass lets every client replay its lists, one per round and around again
// when they run out, until the deadline passed and minRounds rounds are done.
// Clients run concurrently; each is a closed loop.
func runPass(w workload, clients []*client, lists [][][]op, seconds float64, minRounds int) pass {
	db := clients[0].db
	runtime.GC()
	p := pass{before: readCounters(db)}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, lists [][]op) {
			defer wg.Done()
			for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
				list := lists[r%len(lists)]
				n0, t0 := len(c.lat), time.Now()
				for i := range list {
					w.exec(c, &list[i])
				}
				c.rounds = append(c.rounds, round{len(c.lat) - n0, time.Since(t0)})
			}
		}(c, lists[i])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after = readCounters(db)
	for _, c := range clients {
		p.stmts += len(c.lat)
	}
	return p
}

// quantile returns the q-quantile of sorted xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencies merges the clients' samples, optionally of one class, in µs,
// sorted.
func latencies(clients []*client, class int) []float64 {
	var out []float64
	for _, c := range clients {
		for i, ns := range c.lat {
			if class < 0 || int(c.cls[i]) == class {
				out = append(out, float64(ns)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// throughput is the sum over clients of the median round rate: a median so
// that one disturbed round does not move it, a sum because the clients run
// side by side.
func throughput(clients []*client) (perSec float64, rates []float64) {
	for _, c := range clients {
		var rs []float64
		for _, r := range c.rounds {
			rs = append(rs, float64(r.stmts)/r.dur.Seconds())
		}
		perSec += median(rs)
		rates = append(rates, rs...)
	}
	return perSec, rates
}

// gmean is the geometric mean of ratios that are all ≥ 1.
func gmean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	var s float64
	for _, r := range ratios {
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(ratios)))
}

// qerr is the symmetric miss factor max(a/b, b/a), both floored at floor so a
// zero on either side stays finite.
func qerr(a, b, floor float64) float64 {
	a, b = math.Max(a, floor), math.Max(b, floor)
	if a > b {
		return a / b
	}
	return b / a
}
