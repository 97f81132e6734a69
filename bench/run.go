package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"systemr"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// A measured is one metric's value; Q1, Q3 and N describe the distribution
// it is the median (or percentile) of, when there is one.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

type workloadResult struct {
	Sizes       map[string]int      `json:"sizes"`
	BufferPages int                 `json:"buffer_pages"`
	Clients     int                 `json:"clients"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	FirstError  string              `json:"first_error,omitempty"`
	Metrics     map[string]measured `json:"metrics"`
}

// A run generates and loads its database at least minSetups times, and a
// small database until a tenth of the run's seconds is spent or maxSetups are
// made: setup_s is the median, so a slow load does not move it, and a 70 ms
// load is not judged by three samples.
const (
	minSetups = 3
	maxSetups = 15
)

// minRounds is the fewest rounds a measured pass makes, however short the
// run: throughput is a median over rounds.
const minRounds = 3

// Round 0 is the list of the verification copy, the estimate pass, the
// warm-up and the replay. The measured pass plays rounds 1 to passRounds and
// starts over should it outrun them. Only adhoc_join's rounds differ: it
// plays about 55 in twenty seconds today, and one that starts over meets a
// text again after 57 000 others.
const passRounds = 64

// An instance is one generated and loaded database.
type instance struct {
	w         workload
	db        *systemr.DB
	userBytes int64
	statsTime time.Duration
}

func setup(sp spec, build func() workload) (*instance, time.Duration, error) {
	t := time.Now()
	in := &instance{w: build(), db: systemr.Open(systemr.Config{BufferPages: sp.bufferPages})}
	var err error
	if in.userBytes, in.statsTime, err = load(in.db, in.w.tables()); err != nil {
		return nil, 0, err
	}
	if err = in.w.prepare(in.db); err != nil {
		return nil, 0, err
	}
	return in, time.Since(t), nil
}

// spaceAmp is the simulated disk's size over the encoded size of the user
// rows it holds.
func (in *instance) spaceAmp() float64 {
	return float64(in.db.Catalog().Disk().NumPages()) * storage.PageSize / float64(in.userBytes)
}

// tally folds finished clients into the result's operation counts.
func (res *workloadResult) tally(clients []*client) {
	for _, c := range clients {
		res.Attempted += len(c.lat)
		res.Failed += c.failed
		if c.firstErr != nil && res.FirstError == "" {
			res.FirstError = c.firstErr.Error()
		}
	}
}

func (res *workloadResult) fail(err error) {
	res.Attempted++
	res.Failed++
	if res.FirstError == "" {
		res.FirstError = err.Error()
	}
}

// newClients makes the workload's clients, each with room for rounds rounds
// of its list.
func newClients(sp spec, in *instance, rounds int) []*client {
	clients := make([]*client, sp.clients)
	for i := range clients {
		// An oltp_mixed transfer is five statements; the other operations
		// are one.
		clients[i] = newClient(i, in.db, 2*rounds*len(in.w.ops(i, 0)))
	}
	return clients
}

// lists returns, per client, the lists of rounds first to first+n-1.
func lists(sp spec, w workload, first, n int) [][][]op {
	out := make([][][]op, sp.clients)
	for i := range out {
		for r := first; r < first+n; r++ {
			out[i] = append(out[i], w.ops(i, r))
		}
	}
	return out
}

func runWorkload(sp spec, o options) (*workloadResult, error) {
	res := &workloadResult{BufferPages: sp.bufferPages, Clients: sp.clients, Metrics: make(map[string]measured)}
	if err := verifySmall(sp, o.seed, res); err != nil {
		return nil, fmt.Errorf("verification copy: %w", err)
	}

	var in *instance
	var setupTimes []float64
	for spent := 0.0; len(setupTimes) < minSetups || (spent < o.seconds/10 && len(setupTimes) < maxSetups); {
		var took time.Duration
		var err error
		if in, took, err = setup(sp, func() workload { return sp.build(o.seed, o.scale) }); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		spent += took.Seconds()
		if o.trace {
			break // the traced pass reports no setup_s
		}
	}
	res.Sizes = in.w.sizes()

	amp := in.spaceAmp()
	costQerr, rowsQerr := estimatePass(in, res)

	// Warm-up: one round, so the plan cache and buffer pool are in the state
	// every later round starts from and feedback recompiles have happened.
	warm := newClients(sp, in, 1)
	runPass(in.w, warm, lists(sp, in.w, 0, 1), 0, 1)
	res.tally(warm)
	// A workload that writes reports its space after the warm-up round — the
	// same amount of work in every run, unlike the timed pass, whose length
	// in statements depends on the clock. A read-only one reports it as
	// loaded, before sorts leave temporary pages behind.
	if sp.writes {
		for _, c := range warm {
			in.userBytes += c.userBytes
		}
		amp = in.spaceAmp()
	}

	clients := newClients(sp, in, 16)
	seconds := o.seconds
	if o.trace {
		// The traced run splits its time between the counted pass, the
		// lifecycle replay and the probes.
		seconds *= 0.4
		for _, c := range clients {
			c.classify = true
		}
	}
	p := runPass(in.w, clients, lists(sp, in.w, 1, passRounds), seconds, minRounds)
	res.tally(clients)

	if !o.trace {
		endToEndMetrics(res, p, clients, setupTimes, costQerr, amp)
	} else if err := perLayerMetrics(sp, o, in, res, p, clients, rowsQerr); err != nil {
		return nil, err
	}
	if err := in.w.finish(in.db, clients); err != nil {
		res.fail(err)
	}
	return res, nil
}

func endToEndMetrics(res *workloadResult, p pass, clients []*client, setupTimes []float64, costQerr, spaceAmp float64) {
	stmts := float64(p.stmts)
	io := p.after.io.Sub(p.before.io)
	lat := latencies(clients, -1)
	perSec, rates := throughput(clients)
	rates, setupTimes = sortedCopy(rates), sortedCopy(setupTimes)
	m := map[string]float64{
		"setup_s":              median(setupTimes),
		"stmt_per_s":           perSec,
		"stmt_p50_us":          quantile(lat, 0.50),
		"stmt_p95_us":          quantile(lat, 0.95),
		"cost_per_stmt":        io.Cost(costW) / stmts,
		"rsi_per_stmt":         float64(io.RSICalls) / stmts,
		"cost_qerr_gmean":      costQerr,
		"allocs_per_stmt":      float64(p.after.mallocs-p.before.mallocs) / stmts,
		"alloc_bytes_per_stmt": float64(p.after.bytes-p.before.bytes) / stmts,
		"space_amp":            spaceAmp,
	}
	// The distributions the timings summarize.
	dists := map[string][]float64{"setup_s": setupTimes, "stmt_per_s": rates, "stmt_p50_us": lat, "stmt_p95_us": lat}
	for _, d := range endToEnd {
		v := measured{Value: m[d.name], Unit: d.unit}
		if xs := dists[d.name]; xs != nil {
			v.Q1, v.Q3, v.N = quantile(xs, 0.25), quantile(xs, 0.75), len(xs)
		}
		res.Metrics[d.name] = v
	}
}

// selectOf returns o's SELECT text and host variables, or "" when o is not a
// plain SELECT (a transfer, an insert, a delete).
func selectOf(o *op) (string, []any) {
	if strings.HasPrefix(o.text, "SELECT") {
		return o.text, o.args
	}
	return "", nil
}

// literal substitutes host variables into '?' text, for the entry points
// that take no arguments.
func literal(text string, args []any) string {
	for _, a := range args {
		text = strings.Replace(text, "?", hostValue(a).SQL(), 1)
	}
	return text
}

// estimatePass runs every distinct SELECT of the first client's list once,
// single-client so LastStats is exact, and compares what the optimizer
// predicted with what the executor measured: cost in the paper's units
// (E2's "predicted 4.9, measured 79" as a tracked number) and result rows.
// The buffer pool is emptied before each statement: the cost formulas
// predict fetches into an empty buffer, and a measurement that depended on
// what earlier statements left resident would say more about their order
// than about the estimate.
func estimatePass(in *instance, res *workloadResult) (costQerr, rowsQerr float64) {
	const maxSample = 400
	c := newClient(0, in.db, maxSample)
	seen := make(map[string]bool)
	var costs, rows []float64
	list := in.w.ops(0, 0)
	for i := range list {
		o := &list[i]
		text, args := selectOf(o)
		key := text + fmt.Sprint(args)
		if text == "" || seen[key] || len(costs) == maxSample {
			continue
		}
		seen[key] = true
		q, err := in.db.PlanSelect(text)
		if err != nil {
			res.fail(fmt.Errorf("plan %q: %w", text, err))
			continue
		}
		in.db.Pool().Flush()
		in.w.exec(c, o)
		st := in.db.LastStats()
		est := q.Root.Est()
		// One RSI call is the least any executed statement costs.
		costs = append(costs, qerr(est.Cost.Total(costW), st.Cost(costW), costW))
		rows = append(rows, qerr(est.Rows, float64(st.Rows), 1))
	}
	res.tally([]*client{c})
	return gmean(costs), gmean(rows)
}

// verifySmall builds the workload at ≤60 rows per relation with the same
// generator, runs its whole list through the engine (checking the
// generator's answers as the timed pass does) and compares every SELECT's
// result, as a multiset, with the brute-force reference evaluator — which
// shares no code with the executor.
func verifySmall(sp spec, seed int64, res *workloadResult) error {
	in, _, err := setup(sp, func() workload { return sp.small(seed) })
	if err != nil {
		return err
	}
	clients := newClients(sp, in, 1)
	for ci, c := range clients {
		list := in.w.ops(ci, 0)
		for i := range list {
			o := &list[i]
			in.w.exec(c, o)
			text, args := selectOf(o)
			if text == "" {
				continue
			}
			text = literal(text, args)
			if err := crossCheck(in.db, text); err != nil {
				c.fail("%s: %v", text, err)
			}
		}
	}
	res.tally(clients)
	if err := in.w.finish(in.db, clients); err != nil {
		res.fail(err)
	}
	return nil
}

func crossCheck(db *systemr.DB, text string) error {
	got, err := db.Query(text)
	if err != nil {
		return err
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return err
	}
	blk, err := sem.Analyze(stmt.(*sql.SelectStmt), db.Catalog())
	if err != nil {
		return err
	}
	want, err := testutil.RunBlock(db.Catalog().Disk(), blk)
	if err != nil {
		return err
	}
	rows := make([]value.Row, len(got.Rows))
	for i, r := range got.Rows {
		rows[i] = make(value.Row, len(r))
		for j, v := range r {
			rows[i][j] = hostValue(v)
		}
	}
	if !testutil.SameMultiset(rows, want) {
		return fmt.Errorf("engine returned %d rows, reference evaluator %d, and they differ", len(rows), len(want))
	}
	return nil
}

// share is part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// perLayerMetrics fills the result from the counted pass p, then makes the
// lifecycle replay and the probes.
func perLayerMetrics(sp spec, o options, in *instance, res *workloadResult, p pass, clients []*client, rowsQerr float64) error {
	m := map[string]float64{
		"core.rows_qerr_gmean":         rowsQerr,
		"catalog.update_statistics_ms": float64(in.statsTime) / 1e6,
	}
	counterMetrics(in, p, clients, m)
	if err := replayMetrics(sp, o, in, res, m); err != nil {
		return err
	}
	t := time.Now()
	in.db.Vacuum()
	m["rss.vacuum_ms"] = float64(time.Since(t)) / 1e6
	m["rss.chain_len_p95"] = histogramP95(in.db, "systemr_version_chain_length")

	runtime.GC()
	if err := probes(in.db, o.seed, o.scale, m); err != nil {
		return err
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = measured{Value: m[d.name], Unit: d.unit}
	}
	return nil
}

// counterMetrics derives the per-class latencies and everything the engine
// counts itself from the counted pass.
func counterMetrics(in *instance, p pass, clients []*client, m map[string]float64) {
	stmts := float64(p.stmts)
	io := p.after.io.Sub(p.before.io)
	delta := func(name string) float64 { return p.after.registry[name] - p.before.registry[name] }
	p50 := func(class uint8) float64 { return quantile(latencies(clients, int(class)), 0.5) }

	m["systemr.prepared_run_p50_us"] = p50(classPrepared)
	m["systemr.adhoc_hit_p50_us"] = p50(classAdhocHit)
	m["systemr.adhoc_miss_p50_us"] = p50(classAdhocMiss)
	m["systemr.dml_p50_us"] = p50(classDML)
	m["systemr.txn_p50_us"] = p50(classCommit)
	hits := float64(p.after.cache.Hits - p.before.cache.Hits)
	misses := float64(p.after.cache.Misses - p.before.cache.Misses)
	m["compile.cache_hit_share"] = share(hits, hits+misses)
	m["compile.compilations"] = float64(p.after.cache.Compilations - p.before.cache.Compilations)
	m["compile.cache_evictions"] = float64(p.after.cache.Evictions - p.before.cache.Evictions)
	m["compile.feedback_recompiles"] = delta("systemr_feedback_refreshes_total")
	var heapBytes, rows float64
	for _, t := range in.db.Catalog().Tables() {
		if t.System {
			continue
		}
		heapBytes += float64(t.Segment.NumPages()) * storage.PageSize
		rows += float64(t.Stats.NCard)
		for _, cs := range t.ColStats {
			if cs.Hist != nil {
				m["catalog.histogram_buckets"] += float64(len(cs.Hist.Buckets))
			}
		}
	}
	m["exec.batches_per_stmt"] = delta("systemr_exec_batch_rows_count") / stmts
	m["xsort.temp_pages_per_stmt"] = float64(io.PagesWritten) / stmts
	m["rss.versions_scanned_per_row_returned"] = share(float64(io.VersionsScanned), float64(io.RSICalls))
	m["rss.versions_skipped_share"] = share(float64(io.VersionsSkipped), float64(io.VersionsScanned))
	m["rss.vacuum_runs"] = delta("systemr_vacuum_runs_total")
	m["rss.vacuum_reclaimed"] = delta("systemr_vacuum_reclaimed_total")
	m["storage.hit_share"] = 1 - share(float64(io.PageFetches), float64(io.LogicalReads))
	m["storage.fetches_per_stmt"] = float64(io.PageFetches) / stmts
	m["storage.evictions_per_stmt"] = float64(p.after.evictions-p.before.evictions) / stmts
	m["storage.logical_reads_per_stmt"] = float64(io.LogicalReads) / stmts
	m["storage.bytes_per_row"] = share(heapBytes, rows)
	m["lock.wait_share"] = delta("systemr_lock_wait_seconds") / (p.wall.Seconds() * float64(len(clients)))
	m["lock.deadlocks"] = delta("systemr_deadlocks_total")
	m["lock.timeouts"] = delta("systemr_lock_timeouts_total")
	m["txn.commits"] = delta("systemr_txn_commits_total")
	m["txn.rollbacks"] = delta("systemr_txn_rollbacks_total")
	m["txn.write_conflicts"] = delta("systemr_write_conflicts_total")
	var retries, ops float64
	for _, c := range clients {
		retries += float64(c.retries)
		ops += float64(len(c.rounds) * len(in.w.ops(c.id, 0)))
	}
	m["txn.retry_share"] = share(retries, ops)
}

// replayMetrics replays the lifecycle of the first client's SELECTs with
// spans, for a fifth of the run's seconds, then runs the same statements
// through the public API: the difference is what the spans cost.
func replayMetrics(sp spec, o options, in *instance, res *workloadResult, m map[string]float64) error {
	budget := time.Duration(o.seconds * 0.2 * float64(time.Second))
	list := in.w.ops(0, 0)
	rp := newReplayer(in.db)
	var sample []*op
	start := time.Now()
	for i := range list {
		o := &list[i]
		text, args := selectOf(o)
		if text == "" {
			continue
		}
		if len(sample) > 0 && time.Since(start) > budget {
			break
		}
		sample = append(sample, o)
		got, err := rp.replay(i, text, args)
		if err == nil {
			err = checkAnswer(o, &systemr.Result{Rows: got})
		}
		if err != nil {
			res.fail(fmt.Errorf("replay: %w", err))
			continue
		}
		res.Attempted++
	}
	traced := time.Since(start)
	plain := newClient(0, in.db, len(sample))
	start = time.Now()
	for _, o := range sample {
		in.w.exec(plain, o)
	}
	m["trace.overhead_share"] = float64(traced)/float64(time.Since(start)) - 1
	res.tally([]*client{plain})
	if err := rp.tr.write(filepath.Join(o.outDir, "trace-"+sp.name+".json")); err != nil {
		return err
	}

	self := rp.tr.selfTimes()
	us := func(name string) float64 { return median(self[name]) / 1e3 }
	var total float64
	byLayer := make(map[string]float64) // self time by the module a span name starts with
	sum := make(map[string]float64)
	for name, xs := range self {
		for _, x := range xs {
			sum[name] += x
		}
		byLayer[name[:strings.IndexByte(name, '.')]] += sum[name]
		total += sum[name]
	}
	m["systemr.self_us"] = us("systemr.statement")
	m["sql.normalize_us"] = us("sql.normalize")
	m["sql.parse_us"] = us("sql.parse")
	m["sem.analyze_us"] = us("sem.analyze")
	m["core.optimize_us"] = us("core.optimize")
	m["compile.cache_lookup_us"] = us("compile.cache_lookup")
	m["exec.run_us"] = us("exec.run")
	m["core.candidates_per_stmt"] = share(float64(rp.optCandidates), float64(rp.compiled))
	m["core.solutions_per_stmt"] = share(float64(rp.optSolutions), float64(rp.compiled))
	m["systemr.materialise_ns_per_row"] = share(sum["systemr.materialise"], float64(rp.rows))
	m["exec.ns_per_rsi_call"] = share(byLayer["exec"], float64(rp.rsiCalls))
	for _, class := range []string{"scan", "join", "sort", "agg", "project"} {
		m["exec."+class+"_self_share"] = share(float64(rp.opSelf[class]), float64(rp.opTotal))
	}
	// The executor's span contains xsort, rss, btree and storage: from
	// outside they are one.
	m["trace.compile_share"] = share(byLayer["sql"]+byLayer["sem"]+byLayer["core"]+byLayer["compile"], total)
	m["trace.exec_share"] = share(byLayer["exec"], total)
	return nil
}
