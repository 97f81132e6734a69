// Package systemr is an embeddable relational database engine that
// reproduces the query-processing architecture of
//
//	P. Griffiths Selinger, M. M. Astrahan, D. D. Chamberlin, R. A. Lorie,
//	T. G. Price. "Access Path Selection in a Relational Database Management
//	System." SIGMOD 1979.
//
// SQL statements pass through the paper's four phases — parsing,
// optimization (catalog lookup, Table 1 selectivities, Table 2 access path
// costs, dynamic-programming join enumeration with interesting orders),
// plan construction, and execution against a Research-Storage-System-style
// storage engine with segment scans, B-tree index scans, and search
// arguments.
//
// Quick start:
//
//	db := systemr.Open(systemr.Config{})
//	db.MustExec("CREATE TABLE EMP (NAME VARCHAR, DNO INTEGER, JOB INTEGER, SAL FLOAT)")
//	db.MustExec("CREATE INDEX EMP_DNO ON EMP (DNO)")
//	db.MustExec("INSERT INTO EMP VALUES ('SMITH', 50, 5, 10000.0)")
//	db.MustExec("UPDATE STATISTICS")
//	res, err := db.Query("SELECT NAME FROM EMP WHERE DNO = 50")
//	text, err := db.Explain("SELECT NAME FROM EMP WHERE DNO = 50")
package systemr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
)

// JoinMethod is the set of join methods the optimizer may use.
type JoinMethod = core.JoinMethod

// The join-method sets: all three methods, nested loops alone, or merging
// scans with nested loops only for join steps no equi-join applies to.
const (
	AllJoins        = core.AllJoins
	NestedLoopsOnly = core.NestedLoopsOnly
	MergeOnly       = core.MergeOnly
)

// Config tunes a database instance.
type Config struct {
	// BufferPages is the buffer-pool size in 4K pages (default 64). It is
	// both the execution-time cache and the "System R buffer" the
	// optimizer's Table 2 alternatives test against.
	BufferPages int
	// W is the optimizer's CPU weighting factor (default 0.033):
	// COST = PAGE FETCHES + W * RSI CALLS.
	W float64
	// Joins restricts the join methods the optimizer considers (default
	// AllJoins: nested loops, merging scans and hash joins).
	Joins JoinMethod
	// DisableHistograms ignores the per-column equi-depth histograms UPDATE
	// STATISTICS builds, reverting every selectivity estimate to Table 1
	// defaults and index ICARDs — the paper's original estimation model.
	DisableHistograms bool
	// Naive bypasses access path selection entirely: segment scans,
	// FROM-order nested loops, no search arguments — the no-optimizer
	// baseline of the evaluation harness.
	Naive bool

	// ExecBatchSize is the number of rows the executor moves per operator
	// batch (0 = default 256). It only amortizes per-row instrumentation —
	// it never changes plan choice, so it does not participate in the plan
	// cache key. Negative values are treated as the default.
	ExecBatchSize int

	// DisableSnapshotReads turns MVCC snapshot reads off: SELECTs take
	// shared table locks again (pure strict 2PL, the pre-MVCC engine) and
	// block behind writers. Reads are still version-aware — they see the
	// latest committed versions — so the switch only changes concurrency,
	// not results. Benchmark baseline and escape hatch.
	DisableSnapshotReads bool
	// VacuumEvery triggers automatic version garbage collection after that
	// many committed writing transactions (0 = default 512; negative
	// disables). Vacuum also runs on demand via DB.Vacuum.
	VacuumEvery int

	// PlanCacheSize bounds the shared compiled-plan cache in entries: a
	// repeated SELECT (same normalized text, unchanged catalog version),
	// ad hoc or prepared, executes its cached plan and skips
	// parse/sem/optimize entirely. 0 means the default (256); negative
	// disables caching, recompiling every statement as the seed engine did.
	PlanCacheSize int

	// RecompileMissRatio closes the estimation feedback loop: after every
	// execution of a cached plan, the engine compares the optimizer's
	// estimated result rows with the measured actual rows, and once the
	// symmetric miss factor max(est,act)/min(est,act) reaches this ratio the
	// plan is marked; the next execution refreshes statistics on the tables
	// the plan reads (non-blocking — skipped under catalog contention) and
	// recompiles against them. 0 means the default (10); negative disables
	// feedback entirely.
	RecompileMissRatio float64

	// Execution governor knobs (0 = unlimited). Violations surface as a
	// *StatementError wrapping ErrBudgetExceeded, with the partial ExecStats
	// attached.

	// MaxRowsScanned bounds the tuples a statement may examine across all of
	// its scans (not the rows it returns).
	MaxRowsScanned int64
	// MaxPageFetches bounds buffer-pool misses charged to a statement.
	MaxPageFetches int64
	// StatementTimeout bounds each statement's wall-clock execution,
	// including lock waits.
	StatementTimeout time.Duration
	// LockTimeout bounds each lock-acquisition wait (0 = wait forever). The
	// wait-for-graph deadlock detector resolves true deadlocks immediately;
	// the timeout is the fallback for waits it cannot classify, such as a
	// lock held by a stalled transaction. A tripped timeout surfaces as a
	// *StatementError wrapping ErrLockTimeout.
	LockTimeout time.Duration
}

// DB is an embedded database instance. Methods are safe for concurrent use:
// each statement acquires table-level shared/exclusive locks under two-phase
// locking (the RSS's locking duty at coarse granularity — see DESIGN.md), so
// concurrent readers proceed in parallel while writers and DDL serialize per
// table. DB-level Exec autocommits: each statement runs as its own
// transaction, atomic under undo logging, with locks released at statement
// end. Begin and Conn open multi-statement transactions that retain locks to
// commit/rollback (strict 2PL) with wait-for-graph deadlock detection.
// Measured statistics (LastStats) describe the whole engine and are only
// meaningful for single-client measurement runs.
type DB struct {
	mu       sync.Mutex // guards last
	cfg      Config
	disk     *storage.Disk
	stats    *storage.IOStats
	pool     *storage.BufferPool
	cat      *catalog.Catalog
	locks    *lock.Manager
	compiler *compile.Pipeline
	plans    *compile.Cache // nil when caching is disabled
	metrics  *dbMetrics
	last     ExecStats

	mutFault   atomic.Value // txn.FaultFunc consulted by every new transaction
	activeTxns atomic.Int64 // explicit transactions currently Active

	txns *txn.Registry // XID allocation, snapshots, vacuum horizon

	commits   atomic.Int64 // committed writing txns since the last auto-vacuum
	vacuuming atomic.Bool  // serializes vacuum passes (auto and manual)
}

// DefaultPlanCacheSize is the plan cache's entry bound when
// Config.PlanCacheSize is zero.
const DefaultPlanCacheSize = 256

// DefaultVacuumEvery is the auto-vacuum commit interval when
// Config.VacuumEvery is zero.
const DefaultVacuumEvery = 512

// DefaultRecompileMissRatio is the misestimation factor that marks a cached
// plan for statistics refresh + recompilation when Config.RecompileMissRatio
// is zero: an order of magnitude off in either direction.
const DefaultRecompileMissRatio = 10

// Result is the outcome of a statement.
type Result struct {
	// Columns are the output column names (empty for non-queries).
	Columns []string
	// Rows hold native Go values: int64, float64, string, or nil for NULL.
	Rows [][]any
	// Affected counts rows inserted, deleted, or updated.
	Affected int
	// Plan carries EXPLAIN output.
	Plan string
}

// ExecStats reports the measured cost of the last statement in the paper's
// units.
type ExecStats struct {
	PageFetches   int64
	PagesWritten  int64
	LogicalReads  int64
	RSICalls      int64
	SubqueryEvals int
	Rows          int
}

// Cost evaluates PAGE FETCHES (including temporary-list writes) + W * RSI.
func (s ExecStats) Cost(w float64) float64 {
	return float64(s.PageFetches+s.PagesWritten) + w*float64(s.RSICalls)
}

// Open creates an empty database.
func Open(cfg Config) *DB {
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 64
	}
	if cfg.W == 0 {
		cfg.W = core.DefaultW
	}
	if cfg.ExecBatchSize <= 0 {
		cfg.ExecBatchSize = exec.DefaultBatchSize
	}
	disk := storage.NewDisk()
	stats := &storage.IOStats{}
	cat := catalog.New(disk)
	if cfg.VacuumEvery == 0 {
		cfg.VacuumEvery = DefaultVacuumEvery
	}
	if cfg.RecompileMissRatio == 0 {
		cfg.RecompileMissRatio = DefaultRecompileMissRatio
	}
	db := &DB{
		cfg:   cfg,
		disk:  disk,
		stats: stats,
		pool:  storage.NewBufferPool(disk, cfg.BufferPages, stats),
		cat:   cat,
		locks: lock.NewManager(),
		txns:  txn.NewRegistry(),
	}
	if cfg.LockTimeout > 0 {
		db.locks.SetLockTimeout(cfg.LockTimeout)
	}
	db.compiler = compile.NewPipeline(cat, db.OptimizerConfig(), !cfg.DisableSnapshotReads)
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		db.plans = compile.NewCache(size)
	}
	db.metrics = newDBMetrics(db)
	return db
}

// Exec parses and executes one SQL statement under statement-scope table
// locks.
func (db *DB) Exec(text string) (*Result, error) {
	return db.ExecContext(context.Background(), text)
}

// ExecContext is Exec observing ctx: cancellation or an expired deadline
// aborts the statement — during lock acquisition, compilation, or mid-scan,
// within a bounded number of RSI calls — releasing its locks and scans and
// returning a *StatementError wrapping ErrCanceled or ErrBudgetExceeded.
// The configured StatementTimeout, if any, is layered onto ctx.
//
// The statement autocommits: it runs as its own transaction, its mutations
// undo-logged, so an abort (governor, cancellation, injected fault, or
// contained panic) rolls the database back to the exact pre-statement
// state before the error returns.
//
// A SELECT whose normalized text is in the plan cache takes the compiled
// fast path: the cached entry supplies the lock set, and parse, semantic
// analysis, and optimization are all skipped (the System R premise —
// compile once, execute many).
func (db *DB) ExecContext(ctx context.Context, text string) (*Result, error) {
	return db.execText(ctx, nil, text)
}

// execText runs SQL text through the statement lifecycle, autocommitted
// (cur == nil) or inside the explicit transaction cur.
func (db *DB) execText(ctx context.Context, cur *txn.Txn, text string) (*Result, error) {
	st := statement{text: text}
	if err := db.lifecycle(ctx, cur, &st); err != nil {
		return nil, err
	}
	return st.res, nil
}

// SetMutationFault installs a fault hook consulted before every logged
// mutation (insert or delete) of every subsequently created transaction,
// including autocommitted statements: hook(n) is called with the 1-based
// ordinal of the transaction's nth mutation, and a non-nil error fails the
// statement at exactly that point — before the mutation applies. The
// crash-consistency tests sweep it over every ordinal to prove statement
// rollback restores the exact pre-statement state. nil removes the hook.
func (db *DB) SetMutationFault(hook func(n int64) error) {
	db.mutFault.Store(txn.FaultFunc(hook))
}

// planKey builds the plan-cache key for a normalized SELECT. Host-variable
// types do not participate: compilation never sees the bindings. Neither
// does ExecBatchSize, which is execution-only.
func (db *DB) planKey(norm string) string {
	return compile.Key(norm, "")
}

// resolveSelect produces an executable plan for a SELECT: served from the
// plan cache when the cached entry's catalog version still matches, else
// compiled under the statement's governor budget and cached. It must run
// while the statement's locks are held — the shared catalog lock pins the
// version between the check and execution. sel, when non-nil, is the
// already-parsed statement matching norm (the cold path reuses its parse);
// otherwise norm itself is parsed (Normalize preserves identifier case, so
// the recompiled plan is textually faithful, output names included). held,
// when non-nil, is a prepared statement's current plan: with caching
// disabled it is reused while its version is current.
func (db *DB) resolveSelect(gov *governor.Budget, norm string, sel *sql.SelectStmt, held *compile.CompiledPlan) (*compile.CompiledPlan, bool, error) {
	key := db.planKey(norm)
	version := db.cat.Version()
	if db.plans == nil {
		if held != nil && held.Version == version {
			return held, false, nil
		}
	} else if e, ok := db.plans.Peek(key); ok {
		if e.Version == version {
			db.plans.Hit(key)
			return e, true, nil
		}
		db.plans.Invalidate(key, e)
	}
	var cp *compile.CompiledPlan
	var err error
	cstart := time.Now()
	if sel != nil {
		cp, err = db.compiler.CompileSelect(gov, sel, norm)
	} else {
		cp, err = db.compiler.CompileSelectText(gov, norm)
	}
	db.observeCompile(cstart)
	if err != nil {
		return nil, false, wrapGovErr(err, ExecStats{})
	}
	if db.plans != nil {
		db.plans.Miss()
		db.plans.Put(key, cp)
	}
	return cp, false, nil
}

// MustExec is Exec, panicking on error — for setup code and examples.
func (db *DB) MustExec(text string) *Result {
	res, err := db.Exec(text)
	if err != nil {
		panic(fmt.Sprintf("systemr: %s: %v", text, err))
	}
	return res
}

// Query is Exec restricted to SELECT statements.
func (db *DB) Query(text string) (*Result, error) {
	return db.QueryContext(context.Background(), text)
}

// QueryContext is Query observing ctx (see ExecContext).
func (db *DB) QueryContext(ctx context.Context, text string) (*Result, error) {
	res, err := db.ExecContext(ctx, text)
	return queryOnly(text, res, err)
}

// queryOnly passes a statement's outcome through unless it succeeded
// without returning rows: the Query entry points accept queries only.
func queryOnly(text string, res *Result, err error) (*Result, error) {
	if err == nil && res.Columns == nil {
		return nil, fmt.Errorf("systemr: statement is not a query: %s", text)
	}
	return res, err
}

// Explain plans a SELECT and returns the optimizer's chosen plan as text.
func (db *DB) Explain(text string) (string, error) {
	return db.ExplainContext(context.Background(), text)
}

// ExplainContext is Explain observing ctx (see ExecContext).
func (db *DB) ExplainContext(ctx context.Context, text string) (string, error) {
	return db.explain(ctx, "EXPLAIN "+text)
}

// ExplainAnalyze plans a SELECT, executes it, and returns the plan annotated
// per operator with the optimizer's estimated rows and cost next to the
// measured actual rows, attributed page fetches, and wall time.
func (db *DB) ExplainAnalyze(text string) (string, error) {
	return db.ExplainAnalyzeContext(context.Background(), text)
}

// ExplainAnalyzeContext is ExplainAnalyze observing ctx (see ExecContext);
// the measured execution is governed like any other statement.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, text string) (string, error) {
	return db.explain(ctx, "EXPLAIN ANALYZE "+text)
}

// explain runs an EXPLAIN [ANALYZE] statement and returns its plan text.
func (db *DB) explain(ctx context.Context, text string) (string, error) {
	res, err := db.ExecContext(ctx, text)
	if err != nil {
		return "", err
	}
	return res.Plan, nil
}

// LastStats returns the measured execution statistics of the most recent
// statement.
func (db *DB) LastStats() ExecStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.last
}

// The following accessors expose internal components for this module's
// experiment drivers and tests. External users interact through SQL.

// Catalog returns the system catalogs.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Pool returns the buffer pool (e.g. to Flush for cold-cache measurements,
// or to install a storage.FaultInjector).
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// Locks returns the table-lock manager (leak checks assert
// Locks().Outstanding() == 0 between statements).
func (db *DB) Locks() *lock.Manager { return db.locks }

// Runtime returns an ungoverned executor runtime bound to this database,
// carrying its own fresh statement accumulator and no snapshot — it reads
// the latest committed versions (single-statement tooling: experiment
// drivers and tests).
func (db *DB) Runtime() *exec.Runtime { return db.runtime(nil, nil) }

// RunPlanned executes an already-built plan ungoverned, under a freshly
// pinned snapshot that is released when it returns, and reports the raw
// executor statistics. Experiment drivers measure alternative plans through
// this instead of exec.RunQuery(db.Runtime(), …) so their reads are
// snapshot-consistent and the vacuum horizon is held for exactly the run.
func (db *DB) RunPlanned(q *plan.Query) ([]value.Row, *exec.Stats, error) {
	reg := db.txns.Begin()
	defer db.txns.Finish(reg)
	return exec.RunQuery(db.runtime(nil, reg.Snap), q)
}

// runtime binds an executor runtime with the statement's governor budget,
// the MVCC snapshot its scans read under, and the statement's own I/O
// accumulator, so every page access and RSI call of the statement is
// measured on its own ledger — exact under concurrency — while still
// aggregating into the pool's DB-global counters. The configured batch size
// and the batch metric observer ride along.
func (db *DB) runtime(g *governor.Budget, snap *storage.Snapshot) *exec.Runtime {
	m := db.metrics
	return &exec.Runtime{Pool: db.pool, Disk: db.disk, Budget: g, IO: g.IO(),
		BatchSize: db.cfg.ExecBatchSize, Snap: snap,
		OnBatch: func(rows int) { m.execBatchRows.Observe(float64(rows)) }}
}

// newGovernor creates one statement's execution budget from the configured
// limits, over a fresh per-statement I/O accumulator: the fetch budget is
// enforced against this statement's fetches alone, and the same accumulator
// becomes the statement's measurement ledger via runtime.
func (db *DB) newGovernor(ctx context.Context) *governor.Budget {
	return governor.New(ctx, governor.Limits{
		MaxRowsScanned: db.cfg.MaxRowsScanned,
		MaxPageFetches: db.cfg.MaxPageFetches,
	}, &storage.IOStats{})
}

// OptimizerConfig returns the core optimizer configuration this database
// plans with.
func (db *DB) OptimizerConfig() core.Config {
	return core.Config{
		W:                 db.cfg.W,
		BufferPages:       db.cfg.BufferPages,
		Joins:             db.cfg.Joins,
		DisableHistograms: db.cfg.DisableHistograms,
		Naive:             db.cfg.Naive,
	}
}

// noteCommit accounts one committed writing transaction toward the
// auto-vacuum trigger and runs a vacuum pass every Config.VacuumEvery
// commits. Called after the transaction released its locks.
func (db *DB) noteCommit() {
	if db.cfg.VacuumEvery <= 0 {
		return
	}
	if db.commits.Add(1)%int64(db.cfg.VacuumEvery) == 0 {
		db.Vacuum()
	}
}

// Vacuum reclaims dead row versions: every version whose deleting
// transaction is older than the oldest snapshot any live transaction or
// cursor could still read under is physically removed, along with its index
// entries. Each table is vacuumed under a briefly-held exclusive lock,
// acquired without waiting — tables locked by concurrent writers are simply
// skipped until the next pass, so vacuum never blocks or deadlocks user
// work. It returns the number of versions reclaimed. Runs automatically
// every Config.VacuumEvery committed writes; call it directly for immediate
// reclamation (tests, maintenance windows).
func (db *DB) Vacuum() int {
	if !db.vacuuming.CompareAndSwap(false, true) {
		return 0
	}
	defer db.vacuuming.Store(false)
	horizon := db.txns.Horizon()
	m := db.metrics
	m.vacuumRuns.Inc()
	onChain := func(length int) { m.versionChainLen.Observe(float64(length)) }
	total := 0
	for _, t := range db.cat.Tables() {
		if t.System {
			continue
		}
		n, err := db.vacuumTable(t, horizon, onChain)
		total += n
		if err != nil {
			break
		}
	}
	m.vacuumReclaimed.Add(float64(total))
	return total
}

// vacuumTable vacuums one table under a non-blocking exclusive lock. A table
// locked by a concurrent writer is skipped until the next pass: (0, nil).
func (db *DB) vacuumTable(t *catalog.Table, horizon storage.XID, onChain func(int)) (int, error) {
	held := db.locks.TryAcquire([]lock.Request{
		{Table: compile.CatalogLock, Mode: lock.Shared},
		{Table: t.Name, Mode: lock.Exclusive},
	})
	if held == nil {
		return 0, nil
	}
	defer held.Release()
	return rss.VacuumTable(t, db.disk, horizon, onChain)
}

// PlanSelect analyzes and optimizes a SELECT without executing it
// (ungoverned, uncached — the experiment drivers' entry point).
func (db *DB) PlanSelect(text string) (*plan.Query, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("systemr: not a SELECT: %s", text)
	}
	blk, err := sem.Analyze(sel, db.cat)
	if err != nil {
		return nil, err
	}
	return db.planBlock(nil, blk)
}

// planBlock runs access path selection (or the naive baseline) through the
// compile pipeline, under the statement's governor budget when one is given.
func (db *DB) planBlock(gov *governor.Budget, blk *sem.Block) (*plan.Query, error) {
	if err := gov.Check(); err != nil {
		return nil, wrapGovErr(err, ExecStats{})
	}
	cstart := time.Now()
	q, err := db.compiler.PlanBlock(blk)
	db.observeCompile(cstart)
	return q, err
}

// PlanCacheStats reports plan-cache observability: served hits, compiling
// misses, version invalidations, LRU evictions, occupancy, the pipeline's
// total optimizer invocations, and the current catalog version. All zero
// counters with Capacity 0 means caching is disabled.
type PlanCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	Entries       int
	Capacity      int
	// Compilations counts every optimizer invocation (cached or not) — the
	// counter that must NOT move when a repeated statement hits the cache.
	Compilations int64
	// CatalogVersion is the catalog's current version/stats epoch.
	CatalogVersion uint64
}

// PlanCacheStats returns a snapshot of the plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	s := PlanCacheStats{
		Compilations:   db.compiler.Compilations(),
		CatalogVersion: db.cat.Version(),
	}
	if db.plans != nil {
		cs := db.plans.Stats()
		s.Hits, s.Misses = cs.Hits, cs.Misses
		s.Invalidations, s.Evictions = cs.Invalidations, cs.Evictions
		s.Entries, s.Capacity = cs.Entries, cs.Capacity
	}
	return s
}

// execStmt dispatches one parsed statement under the statement's governor,
// writing through cur's undo log. norm is the statement's normalized text
// ("" only if normalization failed, which implies parsing failed first).
func (db *DB) execStmt(gov *governor.Budget, cur *txn.Txn, norm string, stmt sql.Statement) (*Result, error) {
	var err error
	switch st := stmt.(type) {
	case *sql.CreateTableStmt:
		cols := make([]catalog.Column, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		_, err = db.cat.CreateTable(st.Name, cols, st.Segment)
	case *sql.CreateIndexStmt:
		_, err = db.cat.CreateIndex(st.Name, st.Table, st.Columns, st.Unique, st.Clustered)
	case *sql.DropTableStmt:
		err = db.cat.DropTable(st.Name)
	case *sql.DropIndexStmt:
		err = db.cat.DropIndex(st.Name)
	case *sql.UpdateStatsStmt:
		if st.Table == "" {
			db.cat.UpdateStatistics()
		} else if !db.cat.UpdateStatisticsFor(st.Table) {
			err = fmt.Errorf("systemr: table %s does not exist", st.Table)
		}
	case *sql.InsertStmt:
		return db.execInsert(gov, cur, st)
	case *sql.SelectStmt:
		return db.execSelect(gov, cur, norm, st)
	case *sql.ExplainStmt:
		return db.execExplain(gov, cur, norm, st)
	case *sql.DeleteStmt:
		return db.execDelete(gov, cur, st)
	case *sql.UpdateStmt:
		return db.execUpdate(gov, cur, st)
	default:
		return nil, fmt.Errorf("systemr: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// evalConstExpr evaluates INSERT VALUES expressions: literals and constant
// arithmetic.
func evalConstExpr(e sql.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val, nil
	case *sql.NegExpr:
		v, err := evalConstExpr(x.E)
		if err != nil {
			return value.Value{}, err
		}
		return value.Arith('-', value.NewInt(0), v), nil
	case *sql.BinaryExpr:
		l, err := evalConstExpr(x.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalConstExpr(x.R)
		if err != nil {
			return value.Value{}, err
		}
		switch x.Op {
		case sql.OpAdd:
			return value.Arith('+', l, r), nil
		case sql.OpSub:
			return value.Arith('-', l, r), nil
		case sql.OpMul:
			return value.Arith('*', l, r), nil
		case sql.OpDiv:
			return value.Arith('/', l, r), nil
		}
	}
	return value.Value{}, fmt.Errorf("systemr: VALUES requires constant expressions, got %s", e)
}

// execStatsFrom converts the executor's measured statistics to the public
// ExecStats.
func execStatsFrom(stats *exec.Stats) ExecStats {
	if stats == nil {
		return ExecStats{}
	}
	return ExecStats{
		PageFetches:   stats.IO.PageFetches,
		PagesWritten:  stats.IO.PagesWritten,
		LogicalReads:  stats.IO.LogicalReads,
		RSICalls:      stats.IO.RSICalls,
		SubqueryEvals: stats.SubqueryEvals,
		Rows:          stats.Rows,
	}
}

// setLast records the statement's measured statistics (including the partial
// cost of an aborted statement).
func (db *DB) setLast(s ExecStats) {
	db.mu.Lock()
	db.last = s
	db.mu.Unlock()
	m := db.metrics
	m.stmtCost.Add(s.Cost(db.cfg.W))
	m.stmtFetches.Add(float64(s.PageFetches + s.PagesWritten))
	m.stmtRSI.Add(float64(s.RSICalls))
	m.stmtRows.Add(float64(s.Rows))
}

// wrapGovErr converts a governor abort (cancellation, deadline, budget) into
// a *StatementError carrying the partial stats; other errors pass through.
func wrapGovErr(err error, stats ExecStats) error {
	if errors.Is(err, governor.ErrCanceled) || errors.Is(err, governor.ErrBudgetExceeded) {
		return &StatementError{Err: err, Stats: stats}
	}
	return err
}

func (db *DB) execInsert(gov *governor.Budget, cur *txn.Txn, st *sql.InsertStmt) (*Result, error) {
	t, ok := db.cat.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("systemr: table %s does not exist", st.Table)
	}
	if t.System {
		return nil, fmt.Errorf("systemr: %s is a read-only system catalog", t.Name)
	}
	n := 0
	for _, rowExprs := range st.Rows {
		if err := gov.Tick(); err != nil {
			return nil, wrapGovErr(err, ExecStats{Rows: n})
		}
		row := make(value.Row, len(rowExprs))
		for i, e := range rowExprs {
			v, err := evalConstExpr(e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if _, err := cur.Insert(t, row, storage.NoPrevTID); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// execSelect runs a SQL-text SELECT: resolve a plan — which caches a
// freshly compiled plan for next time — run it, and feed the estimation
// loop with the outcome.
func (db *DB) execSelect(gov *governor.Budget, cur *txn.Txn, norm string, sel *sql.SelectStmt) (*Result, error) {
	cp, _, err := db.resolveSelect(gov, norm, sel, nil)
	if err != nil {
		return nil, err
	}
	rows, _, err := db.runPlan(gov, cur, cp.Query, nil, false)
	if err != nil {
		return nil, err
	}
	db.noteFeedback(cp, float64(len(rows)))
	return queryResult(cp.Query, rows), nil
}

// runPlan executes a plan under the statement's governor and transaction
// snapshot, binding vals to its host variables, and publishes the measured
// cost as LastStats; a governor abort carries the same partial stats. The
// plan itself is never mutated — all execution state lives in the run — so
// cached plans execute concurrently. analyze keeps the instrumented operator
// tree for EXPLAIN ANALYZE.
func (db *DB) runPlan(gov *governor.Budget, t *txn.Txn, q *plan.Query, vals []value.Value, analyze bool) ([]value.Row, *exec.Analysis, error) {
	rt := db.runtime(gov, t.Snapshot())
	var rows []value.Row
	var stats *exec.Stats
	var an *exec.Analysis
	var err error
	if analyze {
		rows, stats, an, err = exec.RunQueryAnalyze(rt, q, vals)
	} else {
		rows, stats, err = exec.RunQueryArgs(rt, q, vals)
	}
	es := execStatsFrom(stats)
	db.setLast(es)
	if err != nil {
		return nil, nil, wrapGovErr(err, es)
	}
	return rows, an, nil
}

// queryResult materializes a query's rows as native Go values.
func queryResult(q *plan.Query, rows []value.Row) *Result {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = toNative(r)
	}
	return &Result{Columns: outNames(q), Rows: out}
}

// outNames returns a query's output column names, never nil: a nil Columns
// marks a Result that is not a query's.
func outNames(q *plan.Query) []string {
	if q.OutNames == nil {
		return []string{}
	}
	return q.OutNames
}

// noteFeedback compares a finished execution's actual result rows with the
// plan's compile-time estimate as the symmetric miss factor. Crossing the
// configured ratio marks the plan: the next execution refreshes statistics
// on the tables it reads and recompiles. Only SQL-text SELECTs and EXPLAIN
// ANALYZE feed the loop. A prepared plan's host-variable estimates are
// value-blind, so its miss factor measures the bindings, not the
// statistics, and feedback would refresh statistics on every run.
func (db *DB) noteFeedback(cp *compile.CompiledPlan, actual float64) {
	ratio := db.cfg.RecompileMissRatio
	if ratio < 0 || cp.Query == nil || cp.Query.Root == nil {
		return
	}
	miss := compile.MissFactor(cp.Query.Root.Est().Rows, actual)
	db.metrics.estMissFactor.Observe(miss)
	if miss >= ratio && !cp.NeedsRecompile() {
		cp.MarkRecompile()
		db.metrics.feedbackMarks.Inc()
	}
}

// refreshFeedbackStats runs the statistics refresh a marked plan asked for:
// UPDATE STATISTICS on each table the plan reads, under a non-blocking
// exclusive catalog lock (the same discipline as the SQL statement). Exactly
// one concurrent execution wins the mark; under catalog contention the
// refresh is skipped and the mark restored, so a later execution retries —
// feedback is advisory and must never block or deadlock a query.
func (db *DB) refreshFeedbackStats(e *compile.CompiledPlan) {
	if !e.TakeRecompile() {
		return
	}
	held := db.locks.TryAcquire([]lock.Request{{Table: compile.CatalogLock, Mode: lock.Exclusive}})
	if held == nil {
		e.MarkRecompile()
		return
	}
	defer held.Release()
	for _, t := range e.Reads {
		db.cat.UpdateStatisticsFor(t)
	}
	db.metrics.feedbackRefreshes.Inc()
}

// selectNorm recovers a SELECT's normalized text from its EXPLAIN wrapper's,
// so EXPLAIN SELECT ... shares (and reports on) the plain SELECT's cache slot.
func selectNorm(norm string) string {
	norm = strings.TrimPrefix(norm, "EXPLAIN ")
	return strings.TrimPrefix(norm, "ANALYZE ")
}

// execExplain plans (and for EXPLAIN ANALYZE also executes) the wrapped
// statement under the same governor as any other statement: a canceled
// context or exhausted budget aborts it, and ANALYZE's execution is governed
// exactly like a plain SELECT. EXPLAIN of a SELECT goes through the plan
// cache — sharing the plain SELECT's slot — and annotates the plan with a
// note when it was served from cache.
func (db *DB) execExplain(gov *governor.Budget, cur *txn.Txn, norm string, st *sql.ExplainStmt) (*Result, error) {
	if err := gov.Check(); err != nil {
		return nil, wrapGovErr(err, ExecStats{})
	}
	var q *plan.Query
	var cacheNote string
	var cp *compile.CompiledPlan
	switch inner := st.Stmt.(type) {
	case *sql.SelectStmt:
		sel, hit, err := db.resolveSelect(gov, selectNorm(norm), inner, nil)
		if err != nil {
			return nil, err
		}
		if hit {
			cacheNote = fmt.Sprintf("plan cache: hit (compiled at catalog version %d)\n", sel.Version)
		}
		cp = sel
		q = cp.Query
	case *sql.DeleteStmt:
		blk, err := sem.AnalyzeDelete(inner, db.cat)
		if err != nil {
			return nil, err
		}
		if q, err = db.planBlock(gov, blk); err != nil {
			return nil, err
		}
	case *sql.UpdateStmt:
		blk, _, err := sem.AnalyzeUpdate(inner, db.cat)
		if err != nil {
			return nil, err
		}
		if q, err = db.planBlock(gov, blk); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("systemr: EXPLAIN does not support %T", st.Stmt)
	}
	if !st.Analyze {
		return &Result{Plan: q.Explain() + cacheNote}, nil
	}
	rows, analysis, err := db.runPlan(gov, cur, q, nil, true)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		db.noteFeedback(cp, float64(len(rows)))
	}
	return &Result{Plan: analysis.Format(db.cfg.W) + cacheNote}, nil
}

// collectMatches locates the tuples a DELETE/UPDATE affects through the
// optimizer's chosen access path (the paper: "retrieval for data
// manipulation is treated similarly"). The scan runs under the statement's
// snapshot: the tuples a writer modifies are exactly the tuples it sees.
// System catalogs are read-only.
func (db *DB) collectMatches(gov *governor.Budget, cur *txn.Txn, blk *sem.Block) (*plan.Query, []storage.TID, []value.Row, error) {
	if t := blk.Rels[0].Table; t.System {
		return nil, nil, nil, fmt.Errorf("systemr: %s is a read-only system catalog", t.Name)
	}
	q, err := db.planBlock(gov, blk)
	if err != nil {
		return nil, nil, nil, err
	}
	tids, rows, err := exec.CollectTIDs(db.runtime(gov, cur.Snapshot()), q)
	if err != nil {
		return nil, nil, nil, wrapGovErr(err, ExecStats{Rows: int(gov.RowsScanned())})
	}
	return q, tids, rows, nil
}

func (db *DB) execDelete(gov *governor.Budget, cur *txn.Txn, st *sql.DeleteStmt) (*Result, error) {
	blk, err := sem.AnalyzeDelete(st, db.cat)
	if err != nil {
		return nil, err
	}
	_, tids, rows, err := db.collectMatches(gov, cur, blk)
	if err != nil {
		return nil, err
	}
	t := blk.Rels[0].Table
	for i, tid := range tids {
		if err := gov.Tick(); err != nil {
			return nil, wrapGovErr(err, ExecStats{Rows: i})
		}
		if err := cur.Delete(t, tid, rows[i]); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(tids)}, nil
}

func (db *DB) execUpdate(gov *governor.Budget, cur *txn.Txn, st *sql.UpdateStmt) (*Result, error) {
	blk, sets, err := sem.AnalyzeUpdate(st, db.cat)
	if err != nil {
		return nil, err
	}
	q, tids, rows, err := db.collectMatches(gov, cur, blk)
	if err != nil {
		return nil, err
	}
	pc := exec.NewPredContext(db.runtime(gov, cur.Snapshot()), q)
	t := blk.Rels[0].Table
	for i, tid := range tids {
		if err := gov.Tick(); err != nil {
			return nil, wrapGovErr(err, ExecStats{Rows: i})
		}
		newRow := rows[i].Clone()
		for _, set := range sets {
			v, err := pc.Eval(rows[i], set.Expr)
			if err != nil {
				return nil, err
			}
			newRow[set.Col] = v
		}
		// UPDATE is mark+insert per row: the old version is delete-marked in
		// place (older snapshots keep seeing it) and the new version links
		// back to it. Undo reverses both halves — removing the new version
		// and clearing the old one's mark.
		if err := cur.Delete(t, tid, rows[i]); err != nil {
			return nil, err
		}
		if _, err := cur.Insert(t, newRow, tid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(tids)}, nil
}

func toNative(r value.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.Kind {
		case value.KindInt:
			out[i] = v.Int
		case value.KindFloat:
			out[i] = v.Float
		case value.KindString:
			out[i] = v.Str
		default:
			out[i] = nil
		}
	}
	return out
}

// FormatResult renders a result as an aligned text table (the rsql shell's
// output format).
func FormatResult(res *Result) string {
	if res.Plan != "" {
		return res.Plan
	}
	if res.Columns == nil {
		return fmt.Sprintf("OK (%d rows affected)\n", res.Affected)
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := "NULL"
			if v != nil {
				s = fmt.Sprintf("%v", v)
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range res.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range res.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range cells {
		for ci, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[ci], s)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(res.Rows))
	return b.String()
}

// Tables lists the catalog's relations with their statistics, sorted by
// name — the rsql shell's \d command.
func (db *DB) Tables() string {
	ts := db.cat.Tables()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s (", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
		}
		fmt.Fprintf(&b, ")  NCARD=%d TCARD=%d P=%.2f\n", t.Stats.NCard, t.Stats.TCard, t.Stats.P)
		for _, ix := range t.Indexes {
			kind := ""
			if ix.Unique {
				kind += " UNIQUE"
			}
			if ix.Clustered {
				kind += " CLUSTERED"
			}
			fmt.Fprintf(&b, "  index %s(%s)%s  ICARD=%d NINDX=%d\n",
				ix.Name, strings.Join(ix.ColumnNames(), ","), kind, ix.Stats.ICard, ix.Stats.NIndx)
		}
	}
	return b.String()
}
