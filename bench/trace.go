package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"systemr"
	"systemr/internal/catalog"
	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/exec"
	"systemr/internal/governor"
	"systemr/internal/lock"
	"systemr/internal/plan"
	"systemr/internal/rss"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/txn"
	"systemr/internal/value"
	"systemr/internal/xsort"
)

// The traced pass. The engine has no spans of its own yet, so the benchmark
// replays a statement's lifecycle itself — the same public entry points of
// each layer, in the order systemr.DB calls them — and records a span around
// each call. Underneath the executor the layers cannot be told apart from
// outside, so they are probed one by one on the workload's own database.

// A span is one timed call into a layer. Spans of one statement share Stmt;
// Parent is the index of the enclosing span, -1 for the statement itself.
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, stmt, parent int) int {
	t.spans = append(t.spans, span{Name: name, Stmt: stmt, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns, per span name, every span's duration minus the time its
// children cover, in ns.
func (t *tracer) selfTimes() map[string][]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(self[i]))
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// A replayer runs SELECTs the way systemr.DB does, one layer call at a time.
// The plan cache and the snapshot registry are its own — the engine's are
// not reachable from outside — with the engine's default capacity, so hits
// and misses fall where the engine's would.
type replayer struct {
	db    *systemr.DB
	tr    *tracer
	cache *compile.Cache
	pins  *txn.Registry
	// prepared maps the text of a statement with host variables to its
	// normalized form, as a systemr.Stmt keeps it.
	prepared map[string]string

	optCandidates, optSolutions, compiled int
	rsiCalls                              int64
	rows                                  int
	opSelf                                map[string]time.Duration // executor self time by operator class
	opTotal                               time.Duration
}

func newReplayer(db *systemr.DB) *replayer {
	return &replayer{db: db, tr: &tracer{t0: time.Now()}, cache: compile.NewCache(systemr.DefaultPlanCacheSize),
		pins: txn.NewRegistry(), prepared: make(map[string]string), opSelf: make(map[string]time.Duration)}
}

func hostValue(a any) value.Value {
	switch x := a.(type) {
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case string:
		return value.NewString(x)
	}
	return value.Null()
}

// replay executes one SELECT and returns its result rows in the public API's
// native form. Non-nil args make it a prepared statement, replayed as
// Stmt.Run executes it: the normalized text was kept at Prepare, so there is
// no normalize call.
func (r *replayer) replay(id int, text string, args []any) ([][]any, error) {
	ctx := context.Background()
	cat := r.db.Catalog()
	tr := r.tr
	norm, known := r.prepared[text]
	if args != nil && !known {
		norm, _ = sql.Normalize(text)
		r.prepared[text] = norm
	}
	root := tr.begin("systemr.statement", id, -1)
	defer tr.end(root)

	var s int
	if args == nil {
		s = tr.begin("sql.normalize", id, root)
		norm, _ = sql.Normalize(text)
		tr.end(s)
	}

	vals := make([]value.Value, len(args))
	for i, a := range args {
		vals[i] = hostValue(a)
	}

	s = tr.begin("compile.cache_lookup", id, root)
	key := compile.Key(norm, compile.ArgSig(vals))
	cp, ok := r.cache.Peek(key)
	if ok && cp.Version == cat.Version() {
		r.cache.Hit(key)
	} else if ok {
		r.cache.Invalidate(key, cp)
		ok = false
	}
	tr.end(s)

	if !ok {
		s = tr.begin("sql.parse", id, root)
		stmt, err := sql.Parse(text)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		sel, isSel := stmt.(*sql.SelectStmt)
		if !isSel {
			return nil, fmt.Errorf("replay: not a SELECT: %s", text)
		}
		s = tr.begin("sem.analyze", id, root)
		blk, err := sem.Analyze(sel, cat)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("core.optimize", id, root)
		opt := core.New(cat, r.db.OptimizerConfig())
		q, err := opt.Optimize(blk)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		st := opt.Stats()
		r.optCandidates += st.CandidatesConsidered
		r.optSolutions += st.SolutionsStored
		r.compiled++
		cp = &compile.CompiledPlan{Norm: norm, Version: cat.Version(), Query: q, Locks: compile.LockRequests(stmt, true)}
		r.cache.Miss()
		r.cache.Put(key, cp)
	}

	s = tr.begin("lock.acquire", id, root)
	locks := r.db.Locks().Begin()
	err := locks.AcquireContext(ctx, cp.Locks)
	tr.end(s)
	defer func() {
		s := tr.begin("lock.release", id, root)
		locks.ReleaseAll()
		tr.end(s)
	}()
	if err != nil {
		return nil, err
	}

	// The pin is on the replayer's own registry, so it costs what the
	// engine's costs but does not hold the engine's vacuum horizon. That is
	// sound here because the replay is the database's only client: nothing
	// writes or vacuums while it reads, and "latest committed" (a nil
	// snapshot) is then exactly what a fresh snapshot would see.
	s = tr.begin("txn.begin", id, root)
	reg := r.pins.Begin()
	tr.end(s)
	defer func() {
		s := tr.begin("txn.finish", id, root)
		r.pins.Finish(reg)
		tr.end(s)
	}()

	gov := governor.New(ctx, governor.Limits{}, &storage.IOStats{})
	rt := &exec.Runtime{Pool: r.db.Pool(), Disk: cat.Disk(), Budget: gov, IO: gov.IO(), BatchSize: exec.DefaultBatchSize}
	s = tr.begin("exec.run", id, root)
	rows, stats, analysis, err := exec.RunQueryAnalyze(rt, cp.Query, vals)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	r.rsiCalls += stats.IO.RSICalls
	r.rows += len(rows)
	r.opTotal += r.attribute(analysis.Root)

	s = tr.begin("systemr.materialise", id, root)
	out := make([][]any, len(rows))
	for i, row := range rows {
		native := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case value.KindInt:
				native[j] = v.Int
			case value.KindFloat:
				native[j] = v.Float
			case value.KindString:
				native[j] = v.Str
			}
		}
		out[i] = native
	}
	tr.end(s)
	return out, nil
}

// attribute adds each operator's self time (inclusive minus children) to its
// class and returns the operator's inclusive time.
func (r *replayer) attribute(o exec.Operator) time.Duration {
	total := o.Stats().Elapsed
	self := total
	for _, c := range o.Children() {
		self -= r.attribute(c)
	}
	class := "project"
	switch o.Plan().(type) {
	case *plan.SegScan, *plan.IndexScan, *plan.Parallel:
		class = "scan"
	case *plan.NLJoin, *plan.MergeJoin, *plan.HashJoin:
		class = "join"
	case *plan.Sort:
		class = "sort"
	case *plan.GroupAgg:
		class = "agg"
	}
	r.opSelf[class] += self
	return total
}

// probes measures the layers underneath the executor directly, on the
// workload's own loaded database. It runs last: it moves the buffer-pool and
// lock counters the passes before it difference.
func probes(db *systemr.DB, seed int64, scale float64, m map[string]float64) error {
	rnd := rand.New(rand.NewSource(seed))
	cat := db.Catalog()
	pool := db.Pool()
	// The workload's largest relation and its unique index.
	var table *catalog.Table
	for _, t := range cat.Tables() {
		if !t.System && (table == nil || t.Stats.NCard > table.Stats.NCard) {
			table = t
		}
	}
	var index *catalog.Index
	for _, ix := range table.Indexes {
		if ix.Unique {
			index = ix
		}
	}
	if index == nil {
		return fmt.Errorf("probes: %s has no unique index", table.Name)
	}
	pages := table.Segment.Pages()
	// Iteration counts are for scale 1; the smoke test's 1/100 scale makes
	// the same calls fewer times.
	perOp := func(n int, f func(i int)) float64 {
		n = max(int(float64(n)*min(scale, 1)), 100)
		t := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return float64(time.Since(t)) / float64(n)
	}

	var err error
	fetch := func(id storage.PageID) {
		if _, ferr := pool.Fetch(id); ferr != nil {
			err = ferr
		}
	}
	fetch(pages[0])
	m["storage.fetch_hit_ns"] = perOp(200000, func(int) { fetch(pages[0]) })
	m["storage.fetch_miss_ns"] = perOp(20000, func(i int) {
		id := pages[i%len(pages)]
		pool.Evict(id)
		fetch(id)
	})
	if err != nil {
		return err
	}

	stmt := &storage.IOStats{}
	_, _, _, low, high := index.Tree.Stats()
	keys := max(high.Int-low.Int+1, 1)
	seeks := 0
	m["btree.seek_ns"] = perOp(50000, func(int) {
		it := index.Tree.Seek(pool.View(stmt), []value.Value{value.NewInt(low.Int + rnd.Int63n(keys))})
		it.Next()
		seeks++
	})
	m["btree.pages_per_seek"] = float64(stmt.Snapshot().LogicalReads) / float64(seeks)
	m["btree.height"] = float64(index.Tree.Height())

	if err := probeScans(db, table, index, m); err != nil {
		return err
	}

	m["lock.acquire_release_ns"] = perOp(100000, func(int) {
		db.Locks().Acquire([]lock.Request{{Table: table.Name, Mode: lock.Shared}}).Release()
	})
	own := txn.NewRegistry()
	m["txn.begin_finish_ns"] = perOp(100000, func(int) { own.Finish(own.Begin()) })
	budget := governor.New(context.Background(), governor.Limits{}, &storage.IOStats{})
	m["governor.tick_ns"] = perOp(1000000, func(int) {
		if terr := budget.Tick(); terr != nil {
			err = terr
		}
	})
	m["metrics.scrape_us"] = perOp(200, func(int) {
		if _, werr := db.Metrics().WriteTo(io.Discard); werr != nil {
			err = werr
		}
	}) / 1e3
	return err
}

// probeScans times Page.ReadVersioned, the two RSS scan types and xsort.Sort
// on table's own rows.
func probeScans(db *systemr.DB, table *catalog.Table, index *catalog.Index, m map[string]float64) error {
	pool := db.Pool()
	// See replayer.replay: the probes are the database's only client, so a
	// pin on a registry of their own and a nil snapshot read what a fresh
	// snapshot would.
	own := txn.NewRegistry()
	reg := own.Begin()
	defer own.Finish(reg)

	const maxRows = 100000
	var reads int
	t := time.Now()
	for _, id := range table.Segment.Pages() {
		page, err := pool.Fetch(id)
		if err != nil {
			return err
		}
		for i := uint16(0); i < page.SlotCount() && reads < maxRows; i++ {
			if _, _, _, ok, err := page.ReadVersioned(i); err != nil {
				return err
			} else if ok {
				reads++
			}
		}
	}
	m["storage.read_versioned_ns"] = float64(time.Since(t)) / float64(max(reads, 1))

	drain := func(s rss.Scan) (rows []value.Row, perRow float64, err error) {
		t := time.Now()
		if err := s.Open(); err != nil {
			return nil, 0, err
		}
		defer func() {
			if cerr := s.Close(); err == nil {
				err = cerr
			}
		}()
		for len(rows) < maxRows {
			row, _, ok, err := s.Next()
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		return rows, float64(time.Since(t)) / float64(max(len(rows), 1)), nil
	}
	rows, perRow, err := drain(&rss.SegmentScan{Table: table, Pool: pool, Stmt: &storage.IOStats{}})
	if err != nil {
		return err
	}
	m["rss.segscan_ns_per_row"] = perRow
	if _, perRow, err = drain(&rss.IndexScan{Index: index, Pool: pool, Stmt: &storage.IOStats{}}); err != nil {
		return err
	}
	m["rss.indexscan_ns_per_row"] = perRow

	// Sort on the second column: the rows arrive in key order, which would
	// make a sort on the key trivial.
	next := 0
	t = time.Now()
	sorted, err := xsort.Sort(xsort.Config{Pool: pool, Disk: db.Catalog().Disk(), Keys: []int{1}, Stmt: &storage.IOStats{}},
		func() (value.Row, bool, error) {
			if next == len(rows) {
				return nil, false, nil
			}
			next++
			return rows[next-1], true, nil
		})
	if err != nil {
		return err
	}
	defer sorted.Close()
	for {
		if _, ok, err := sorted.Next(); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	m["xsort.sort_ns_per_row"] = float64(time.Since(t)) / float64(max(len(rows), 1))
	return nil
}

// histogramP95 returns the upper bound of the bucket holding the 95th
// percentile of a registry histogram (the largest finite bound when it falls
// in +Inf), or 0 when nothing was observed.
func histogramP95(db *systemr.DB, name string) float64 {
	for _, s := range db.Metrics().Snapshot() {
		if s.Name != name || s.Count == 0 {
			continue
		}
		for i, n := range s.BucketCounts {
			if float64(n) >= 0.95*float64(s.Count) {
				return s.Buckets[min(i, len(s.Buckets)-2)]
			}
		}
	}
	return 0
}
