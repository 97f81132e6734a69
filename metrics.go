package systemr

// Engine observability: a metrics registry built on the per-statement I/O
// accounting split. Exact per-statement numbers live on each statement's own
// accumulator (ExecStats, EXPLAIN ANALYZE); this layer aggregates DB-wide —
// buffer-pool traffic and hit ratio, plan-cache effectiveness, lock waits,
// governor aborts, statement latency, compile time, and the paper's
// W-weighted cost totalled across statements. Exposed via DB.Metrics(), the
// rsql \metrics command, and the registry's Prometheus-text WriteTo.

import (
	"errors"
	"time"

	"systemr/internal/governor"
	"systemr/internal/lock"
	"systemr/internal/metrics"
	"systemr/internal/rss"
)

// dbMetrics bundles the engine's registered instruments. Event-driven
// instruments are updated on the statement path (atomics, no locks);
// everything sourced from live engine state is a gauge refreshed by a
// collector at scrape time.
type dbMetrics struct {
	reg *metrics.Registry

	// Event-driven, statement path.
	statements     *metrics.Counter
	stmtErrors     *metrics.Counter
	govAborts      *metrics.Counter
	stmtCanceled   *metrics.Counter
	stmtSeconds    *metrics.Histogram
	compileSeconds *metrics.Histogram
	lockWait       *metrics.Histogram
	stmtCost       *metrics.Counter
	stmtFetches    *metrics.Counter
	stmtRSI        *metrics.Counter
	stmtRows       *metrics.Counter
	txnBegins      *metrics.Counter
	txnCommits     *metrics.Counter
	txnRollbacks   *metrics.Counter
	deadlocks      *metrics.Counter
	lockTimeouts   *metrics.Counter
	execBatchRows  *metrics.Histogram

	// Estimation feedback.
	estMissFactor     *metrics.Histogram
	feedbackMarks     *metrics.Counter
	feedbackRefreshes *metrics.Counter

	// MVCC.
	writeConflicts  *metrics.Counter
	vacuumRuns      *metrics.Counter
	vacuumReclaimed *metrics.Counter
	versionChainLen *metrics.Histogram
}

// newDBMetrics registers the engine's instruments and the scrape-time
// collector over db's live state, and hooks the lock manager's wait
// observer.
func newDBMetrics(db *DB) *dbMetrics {
	reg := metrics.NewRegistry()
	m := &dbMetrics{
		reg: reg,
		statements: reg.NewCounter("systemr_statements_total",
			"Statements executed (all outcomes)"),
		stmtErrors: reg.NewCounter("systemr_statement_errors_total",
			"Statements that returned an error"),
		govAborts: reg.NewCounter("systemr_governor_aborts_total",
			"Statements aborted by the execution governor (budget exceeded)"),
		stmtCanceled: reg.NewCounter("systemr_statements_canceled_total",
			"Statements aborted by context cancellation"),
		stmtSeconds: reg.NewHistogram("systemr_statement_seconds",
			"Statement wall-clock latency, locks and compilation included", nil),
		compileSeconds: reg.NewHistogram("systemr_compile_seconds",
			"Time spent compiling (parse, semantic analysis, access path selection)", nil),
		lockWait: reg.NewHistogram("systemr_lock_wait_seconds",
			"Time statements spent blocked acquiring table locks", nil),
		stmtCost: reg.NewCounter("systemr_statement_cost_total",
			"Measured statement cost summed in the paper's units: PAGE FETCHES + W*(RSI CALLS), with this instance's W"),
		stmtFetches: reg.NewCounter("systemr_statement_page_fetches_total",
			"Page fetches (including temp-list writes) measured across statements"),
		stmtRSI: reg.NewCounter("systemr_statement_rsi_calls_total",
			"RSI calls measured across statements"),
		stmtRows: reg.NewCounter("systemr_statement_rows_total",
			"Rows returned or affected across statements"),
		txnBegins: reg.NewCounter("systemr_txn_begins_total",
			"Explicit transactions started (BEGIN / DB.Begin; autocommit excluded)"),
		txnCommits: reg.NewCounter("systemr_txn_commits_total",
			"Explicit transactions committed"),
		txnRollbacks: reg.NewCounter("systemr_txn_rollbacks_total",
			"Explicit transactions rolled back, by the session or by the engine (deadlock victim, lock timeout)"),
		deadlocks: reg.NewCounter("systemr_deadlocks_total",
			"Statements aborted as deadlock victims"),
		lockTimeouts: reg.NewCounter("systemr_lock_timeouts_total",
			"Statements aborted by the lock-wait timeout"),
		execBatchRows: reg.NewHistogram("systemr_exec_batch_rows",
			"Rows per batch crossing each statement's root operator boundary",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		estMissFactor: reg.NewHistogram("systemr_estimate_miss_factor",
			"Misestimation q-error max(est,act)/min(est,act) of each executed SELECT's result cardinality",
			[]float64{1, 2, 5, 10, 100, 1000}),
		feedbackMarks: reg.NewCounter("systemr_feedback_marks_total",
			"Cached plans marked for recompilation after missing estimates by the configured ratio"),
		feedbackRefreshes: reg.NewCounter("systemr_feedback_refreshes_total",
			"Feedback-triggered statistics refreshes (UPDATE STATISTICS on a marked plan's tables)"),
		writeConflicts: reg.NewCounter("systemr_write_conflicts_total",
			"Transactions aborted by first-updater-wins write conflicts"),
		vacuumRuns: reg.NewCounter("systemr_vacuum_runs_total",
			"Vacuum passes executed (automatic and DB.Vacuum)"),
		vacuumReclaimed: reg.NewCounter("systemr_vacuum_reclaimed_total",
			"Dead row versions physically reclaimed by vacuum"),
		versionChainLen: reg.NewHistogram("systemr_version_chain_length",
			"Version-chain length behind each live row version, observed at vacuum",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
	}

	// Collect-on-scrape gauges from live engine state.
	bufReads := reg.NewGauge("systemr_buffer_logical_reads",
		"Page accesses through the buffer pool, hits included (DB-global)")
	bufFetches := reg.NewGauge("systemr_buffer_page_fetches",
		"Buffer-pool misses — simulated I/Os (DB-global)")
	bufWritten := reg.NewGauge("systemr_buffer_pages_written",
		"Temporary-list pages written (DB-global)")
	bufHitRatio := reg.NewGauge("systemr_buffer_hit_ratio",
		"Fraction of page accesses served from the buffer pool")
	bufEvictions := reg.NewGauge("systemr_buffer_evictions",
		"Pages evicted by LRU capacity pressure")
	bufCapacity := reg.NewGauge("systemr_buffer_capacity_pages",
		"Buffer pool capacity in pages")
	rsiCalls := reg.NewGauge("systemr_rsi_calls",
		"Tuples returned across the RSS interface (DB-global)")
	versionsScanned := reg.NewGauge("systemr_versions_scanned",
		"Heap row versions examined by scans (DB-global)")
	versionsSkipped := reg.NewGauge("systemr_versions_skipped",
		"Heap row versions skipped as invisible to the scanning snapshot (DB-global)")
	cacheHits := reg.NewGauge("systemr_plan_cache_hits",
		"Plan-cache hits (statements that skipped compilation)")
	cacheMisses := reg.NewGauge("systemr_plan_cache_misses",
		"Plan-cache misses (statements that compiled)")
	cacheInval := reg.NewGauge("systemr_plan_cache_invalidations",
		"Cached plans discarded because the catalog version moved")
	cacheEvict := reg.NewGauge("systemr_plan_cache_evictions",
		"Cached plans discarded by LRU capacity pressure")
	cacheEntries := reg.NewGauge("systemr_plan_cache_entries",
		"Compiled plans currently cached")
	cacheCapacity := reg.NewGauge("systemr_plan_cache_capacity",
		"Plan cache capacity in entries (0 = caching disabled)")
	compilations := reg.NewGauge("systemr_compilations",
		"Optimizer invocations since startup")
	catalogVersion := reg.NewGauge("systemr_catalog_version",
		"Current catalog version / statistics epoch")
	locksOutstanding := reg.NewGauge("systemr_locks_outstanding",
		"Table locks currently granted")
	txnsActive := reg.NewGauge("systemr_txns_active",
		"Explicit transactions currently open")
	openScans := reg.NewGauge("systemr_open_scans",
		"RSI scans currently open engine-wide")
	costW := reg.NewGauge("systemr_cost_w",
		"The optimizer's CPU weighting factor W in COST = PAGE FETCHES + W*(RSI CALLS)")

	reg.OnCollect(func() {
		io := db.stats.Snapshot()
		bufReads.Set(float64(io.LogicalReads))
		bufFetches.Set(float64(io.PageFetches))
		bufWritten.Set(float64(io.PagesWritten))
		ratio := 0.0
		if io.LogicalReads > 0 {
			ratio = 1 - float64(io.PageFetches)/float64(io.LogicalReads)
		}
		bufHitRatio.Set(ratio)
		bufEvictions.Set(float64(db.pool.Evictions()))
		bufCapacity.Set(float64(db.pool.Capacity()))
		rsiCalls.Set(float64(io.RSICalls))
		versionsScanned.Set(float64(io.VersionsScanned))
		versionsSkipped.Set(float64(io.VersionsSkipped))
		cs := db.PlanCacheStats()
		cacheHits.Set(float64(cs.Hits))
		cacheMisses.Set(float64(cs.Misses))
		cacheInval.Set(float64(cs.Invalidations))
		cacheEvict.Set(float64(cs.Evictions))
		cacheEntries.Set(float64(cs.Entries))
		cacheCapacity.Set(float64(cs.Capacity))
		compilations.Set(float64(cs.Compilations))
		catalogVersion.Set(float64(cs.CatalogVersion))
		locksOutstanding.Set(float64(db.locks.Outstanding()))
		txnsActive.Set(float64(db.activeTxns.Load()))
		openScans.Set(float64(rss.OpenScans()))
		costW.Set(db.cfg.W)
	})

	db.locks.SetWaitObserver(func(d time.Duration) {
		m.lockWait.Observe(d.Seconds())
	})
	return m
}

// Metrics returns the engine's metrics registry: counters, gauges, and
// histograms over buffer-pool traffic, plan-cache effectiveness, lock waits,
// governor aborts, and statement latency/cost. Snapshot() returns structured
// samples; WriteTo renders the Prometheus text exposition format.
func (db *DB) Metrics() *metrics.Registry { return db.metrics.reg }

// observeStatement records one finished statement: latency, outcome, and —
// when the error was a governor abort — which budget family tripped.
func (db *DB) observeStatement(start time.Time, err error) {
	m := db.metrics
	if m == nil {
		return
	}
	m.statements.Inc()
	m.stmtSeconds.Observe(time.Since(start).Seconds())
	if err == nil {
		return
	}
	m.stmtErrors.Inc()
	if errors.Is(err, governor.ErrBudgetExceeded) {
		m.govAborts.Inc()
	}
	if errors.Is(err, governor.ErrCanceled) {
		m.stmtCanceled.Inc()
	}
	if errors.Is(err, lock.ErrDeadlock) {
		m.deadlocks.Inc()
	}
	if errors.Is(err, lock.ErrLockTimeout) {
		m.lockTimeouts.Inc()
	}
	if errors.Is(err, rss.ErrWriteConflict) {
		m.writeConflicts.Inc()
	}
}

// observeCompile records one compilation's duration.
func (db *DB) observeCompile(start time.Time) {
	if db.metrics == nil {
		return
	}
	db.metrics.compileSeconds.Observe(time.Since(start).Seconds())
}
