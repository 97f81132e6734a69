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

// Config tunes a database instance.
type Config struct {
	// BufferPages is the buffer-pool size in 4K pages (default 64). It is
	// both the execution-time cache and the "System R buffer" the
	// optimizer's Table 2 alternatives test against.
	BufferPages int

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
	// *StatementError wrapping ErrLockTimeout (in Begin, an aborted Txn).
	// DDL waits for every open transaction, an idle one included: DDL run
	// beside the session's own open Txn waits on itself.
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
// LastStats are one statement's own measurements, read from its private
// I/O ledger. With several clients, the last statement to end may be
// another client's: a client that needs its own figures reads them while it
// runs alone, or, for a failed statement, from its *StatementError.
type DB struct {
	mu       sync.Mutex // guards last
	cfg      Config
	disk     *storage.Disk
	stats    *storage.IOStats
	pool     *storage.BufferPool
	cat      *catalog.Catalog
	locks    *lock.Manager
	compiler *compile.Pipeline
	plans    *compile.Cache
	metrics  *dbMetrics
	last     ExecStats

	mutFault   atomic.Value // txn.FaultFunc consulted by every new transaction
	activeTxns atomic.Int64 // explicit transactions currently Active

	txns *txn.Registry // XID allocation, snapshots, vacuum horizon

	commits   atomic.Int64 // committed writing txns since the last auto-vacuum
	vacuuming atomic.Bool  // serializes vacuum passes (auto and manual)
}

// DefaultPlanCacheSize bounds the shared compiled-plan cache in entries: a
// repeated SELECT, UPDATE or DELETE (same normalized text, unchanged catalog
// version), ad hoc or prepared, executes its cached plan and skips
// parse/sem/optimize, and so does an ad hoc one whose lifted literals fall
// in a cached plan's selectivity classes. The bound is twice the (text,
// class) entries a 20 s adhoc_join run fills (about 4,050 at seeds 1 and
// 2), rounded up to a power of two: an LRU replaying a cyclic working set
// larger than itself hits almost never. A cached adhoc_join plan retains
// about 4.5 KB of heap (15 MB for 3,400 plans), so a full cache holds about
// 37 MB.
const DefaultPlanCacheSize = 8192

// DefaultVacuumEvery is the auto-vacuum interval: version garbage collection
// runs after that many committed writing transactions (and on demand via
// DB.Vacuum).
const DefaultVacuumEvery = 512

// Result is the outcome of a statement.
type Result struct {
	// Columns are the output column names (empty for non-queries).
	Columns []string
	// Rows hold native Go values: int64, float64, string, or nil for NULL.
	// They are ordinary values to ==, reflect, fmt and encoding/json and
	// may be kept and read from any goroutine. To save an allocation per
	// cell, a result's cells share a few backing chunks (see nativeRows),
	// so a cell kept after the rest of the result is dropped keeps its
	// chunk alive.
	Rows [][]any
	// Affected counts rows inserted, deleted, or updated.
	Affected int
	// Plan carries EXPLAIN output.
	Plan string
}

// ExecStats reports one statement's measured cost in the paper's units, read
// from the statement's own I/O ledger. Rows counts the result rows of a query
// (EXPLAIN ANALYZE included), the rows a cursor streamed before it closed,
// and the rows an INSERT, DELETE or UPDATE affected, including the partial
// count of an aborted one; it is 0 for DDL, UPDATE STATISTICS and plain
// EXPLAIN. CREATE INDEX and UPDATE STATISTICS read their tables through RSS
// segment scans, so they report those scans' page fetches and RSI calls
// (one per row read).
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
	disk := storage.NewDisk()
	stats := &storage.IOStats{}
	cat := catalog.New(disk)
	db := &DB{
		cfg:   cfg,
		disk:  disk,
		stats: stats,
		pool:  storage.NewBufferPool(disk, cfg.BufferPages, stats),
		cat:   cat,
		locks: lock.NewManager(),
		plans: compile.NewCache(DefaultPlanCacheSize),
		txns:  txn.NewRegistry(),
	}
	if cfg.LockTimeout > 0 {
		db.locks.SetLockTimeout(cfg.LockTimeout)
	}
	db.compiler = compile.NewPipeline(cat, db.OptimizerConfig())
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
// A SELECT, UPDATE or DELETE whose normalized text is in the plan cache
// takes the compiled fast path: the cached entry supplies the lock set, and
// parse, semantic analysis, and optimization are all skipped (the System R
// premise — compile once, execute many).
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

// planKey returns the plan-cache key of a normalized statement. A text with
// host variables is keyed by the text alone: their values do not
// participate, since its ? are value-blind. A lifted text's plan is keyed
// by its family — the text and its literals' kinds — and the class
// signature its family's Classifier assigns lits. That reads statistics,
// so planKey runs under the statement's shared catalog lock, and classifies
// only after the family's version check: a stale family yields its newest
// plan's key, whose lookup then invalidates that plan.
func (db *DB) planKey(norm string, lits []value.Value) string {
	if lits == nil {
		return norm
	}
	f, key, ok := db.plans.Family(compile.Key(norm, compile.ArgSig(lits)))
	if !ok || f.Version != db.cat.Version() {
		return key
	}
	return compile.Key(f.Family, f.Classes.Signature(lits))
}

// resolvePlan produces an executable plan for a SELECT, UPDATE or DELETE:
// served from the plan cache when the cached entry's catalog version still
// matches, else compiled under the statement's governor budget and cached.
// It is the only way a statement gets a plan, and it must run while the
// statement's locks are held — the shared catalog lock pins the version
// between the check and execution. stmt, when non-nil, is the
// already-parsed statement matching norm (the cold path reuses its parse);
// otherwise norm itself is parsed (Normalize preserves identifier case, so
// the recompiled plan is textually faithful, output names included). lits
// are the literals sql.Lift lifted out of norm (nil for none): a miss
// compiles with them peeked.
func (db *DB) resolvePlan(gov *governor.Budget, norm string, stmt sql.Statement, lits []value.Value) (*compile.CompiledPlan, bool, error) {
	key := db.planKey(norm, lits)
	if e, ok := db.plans.Peek(key); ok {
		if e.Version == db.cat.Version() {
			db.plans.Hit(key)
			return e, true, nil
		}
		db.plans.Invalidate(key, e)
	}
	cp, err := db.compile(gov, norm, stmt, lits)
	if err != nil {
		return nil, false, err
	}
	if cp.Family != "" {
		key = compile.Key(cp.Family, cp.Classes.Signature(lits))
	}
	db.plans.Miss()
	db.plans.Put(key, cp)
	return cp, false, nil
}

// compile runs the compile pipeline (compile.Pipeline.Compile) and times it.
func (db *DB) compile(gov *governor.Budget, norm string, stmt sql.Statement, lits []value.Value) (*compile.CompiledPlan, error) {
	defer db.observeCompile(time.Now())
	return db.compiler.Compile(gov, norm, stmt, lits)
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
// statement of any kind, published when it ended: on return for a
// statement, at Rows.Close for a cursor. A failed or aborted statement
// publishes what it measured up to the failure.
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

// RunPlanned executes an already-built plan ungoverned, under a freshly
// pinned snapshot that is released when it returns, and reports the raw
// executor statistics. Experiment drivers measure alternative plans through
// this, so their reads are snapshot-consistent and the vacuum horizon is
// held for exactly the run.
// An internal panic is contained as a *PanicError, as for any statement.
func (db *DB) RunPlanned(q *plan.Query) (_ []value.Row, _ *exec.Stats, err error) {
	defer contain(&err)
	reg := db.txns.Begin()
	defer db.txns.Finish(reg)
	return exec.RunQuery(db.runtime(nil, reg.Snap), q, nil)
}

// runtime binds an executor runtime with the statement's governor budget,
// the MVCC snapshot its scans read under, and the statement's own I/O
// accumulator, so every page access and RSI call of the statement is
// measured on its own ledger — exact under concurrency — while still
// aggregating into the pool's DB-global counters. The batch metric observer
// rides along.
func (db *DB) runtime(g *governor.Budget, snap *storage.Snapshot) *exec.Runtime {
	return &exec.Runtime{Pool: db.pool, Disk: db.disk, Budget: g, IO: g.IO(), Snap: snap,
		OnBatch: db.metrics.observeBatch}
}

// tableRows is the engine's catalog.RowSource: an RSS segment scan of each
// table under snap, whose page fetches and RSI calls count into io. CREATE
// INDEX and UPDATE STATISTICS pass their statement's ledger and snapshot;
// their exclusive catalog lock has waited out every transaction, so that
// snapshot sees what any current or future reader can. The scans carry no
// budget: whether maintenance obeys per-statement limits is still open.
func (db *DB) tableRows(io *storage.IOStats, snap *storage.Snapshot) catalog.RowSource {
	return func(t *catalog.Table, visit func(value.Row, storage.TID) error) error {
		scan := rss.SegmentScan{Table: t, Pool: db.pool, Stmt: io, Snap: snap}
		if err := scan.Open(); err != nil {
			return err
		}
		defer func() { _ = scan.Close() }() // a segment scan's Close cannot fail
		var row value.Row
		for {
			next, tid, ok, err := scan.NextInto(row[:0])
			if err != nil || !ok {
				return err
			}
			if err := visit(next, tid); err != nil {
				return err
			}
			row = next
		}
	}
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
// plans with: the paper's W, every join method, histograms on, and the
// buffer pool's size.
func (db *DB) OptimizerConfig() core.Config {
	return core.Config{W: core.DefaultW, BufferPages: db.cfg.BufferPages}
}

// noteCommit accounts one committed writing transaction toward the
// auto-vacuum trigger and runs a vacuum pass every DefaultVacuumEvery
// commits. Called after the transaction released its locks.
func (db *DB) noteCommit() {
	if db.commits.Add(1)%DefaultVacuumEvery == 0 {
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
// every DefaultVacuumEvery committed writes; call it directly for immediate
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
// The pair is a canonical lock set: the catalog lock comes first.
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

// PlanSelect analyzes and optimizes a SELECT without executing it, under
// the shared catalog lock (ungoverned, uncached, its literals planned as
// written — the experiment drivers' entry point).
func (db *DB) PlanSelect(text string) (*plan.Query, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if _, ok := stmt.(*sql.SelectStmt); !ok {
		return nil, fmt.Errorf("systemr: not a SELECT: %s", text)
	}
	held, err := db.locks.AcquireContext(context.Background(), catalogShared)
	if err != nil {
		return nil, fmt.Errorf("systemr: PlanSelect: %w", err)
	}
	defer held.Release()
	cp, err := db.compile(nil, text, stmt, nil)
	if err != nil {
		return nil, err
	}
	return cp.Query, nil
}

// PlanCacheStats reports plan-cache observability: served hits, compiling
// misses, version invalidations, LRU evictions, occupancy, the pipeline's
// total optimizer invocations, and the current catalog version.
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
	cs := db.plans.Stats()
	return PlanCacheStats{
		Hits:           cs.Hits,
		Misses:         cs.Misses,
		Invalidations:  cs.Invalidations,
		Evictions:      cs.Evictions,
		Entries:        cs.Entries,
		Capacity:       cs.Capacity,
		Compilations:   db.compiler.Compilations(),
		CatalogVersion: db.cat.Version(),
	}
}

// execStmt dispatches one statement under the statement's governor, writing
// through cur's undo log. st.norm is the statement's normalized text (""
// for an INSERT, which needs none, or if normalization failed, which
// implies parsing failed first), and
// st.parsed its parse, nil on a plan-cache hit. A SELECT, UPDATE or DELETE
// resolves its plan — which caches a freshly compiled plan for next time —
// and runs it.
func (db *DB) execStmt(cur *txn.Txn, st *statement) (*Result, error) {
	var err error
	switch x := st.parsed.(type) {
	case nil, *sql.SelectStmt, *sql.DeleteStmt, *sql.UpdateStmt:
		cp, _, err := db.resolvePlan(st.gov, st.norm, st.parsed, st.vals)
		if err != nil {
			return nil, err
		}
		return db.runCompiled(cur, st, cp)
	case *sql.CreateTableStmt:
		cols := make([]catalog.Column, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		_, err = db.cat.CreateTable(x.Name, cols, x.Segment)
	case *sql.CreateIndexStmt:
		_, err = db.cat.CreateIndex(x.Name, x.Table, x.Columns, x.Unique, x.Clustered, db.tableRows(st.gov.IO(), cur.Snapshot()))
	case *sql.DropTableStmt:
		err = db.cat.DropTable(x.Name)
	case *sql.DropIndexStmt:
		err = db.cat.DropIndex(x.Name)
	case *sql.UpdateStatsStmt:
		err = db.cat.UpdateStatistics(x.Table, db.tableRows(st.gov.IO(), cur.Snapshot()))
	case *sql.InsertStmt:
		return db.execInsert(cur, st, x)
	case *sql.ExplainStmt:
		return db.execExplain(cur, st, x)
	default:
		return nil, fmt.Errorf("systemr: unsupported statement %T", x)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// constArith maps the SQL arithmetic operators to value.Arith's.
var constArith = map[sql.BinOp]byte{sql.OpAdd: '+', sql.OpSub: '-', sql.OpMul: '*', sql.OpDiv: '/'}

// evalConstExpr evaluates the INSERT VALUES expressions that are not
// literals: constant arithmetic, whose operands pass the same type checks as
// in SELECT and UPDATE.
func evalConstExpr(e sql.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val, nil
	case *sql.NegExpr:
		v, err := evalConstExpr(x.E)
		if err != nil {
			return value.Value{}, err
		}
		if err := sem.NegOperand(&sem.Const{Val: v}); err != nil {
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
		if op, ok := constArith[x.Op]; ok {
			if err := sem.ArithOperands(&sem.Const{Val: l}, &sem.Const{Val: r}); err != nil {
				return value.Value{}, err
			}
			return value.Arith(op, l, r), nil
		}
	}
	return value.Value{}, fmt.Errorf("systemr: VALUES requires constant expressions, got %s", e)
}

func (db *DB) execInsert(cur *txn.Txn, st *statement, ins *sql.InsertStmt) (*Result, error) {
	t, ok := db.cat.Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("systemr: table %s does not exist", ins.Table)
	}
	if t.System {
		return nil, fmt.Errorf("systemr: %s is a read-only system catalog", t.Name)
	}
	cur.Reserve(len(ins.Rows))
	exprs := ins.Exprs
	for r, row := range ins.Rows {
		if err := st.gov.Tick(); err != nil {
			return nil, err
		}
		for ; len(exprs) > 0 && exprs[0].Row == r; exprs = exprs[1:] {
			v, err := evalConstExpr(exprs[0].Expr)
			if err != nil {
				return nil, err
			}
			row[exprs[0].Col] = v
		}
		// The row is the parse's own: the insert coerces it in place, and
		// the undo log keeps it.
		if _, err := cur.Insert(t, row, storage.NoPrevTID); err != nil {
			return nil, err
		}
		st.nrows++
	}
	return &Result{Affected: st.nrows}, nil
}

// runCompiled runs a resolved plan under the statement's governor and
// snapshot: a DELETE or UPDATE writes its targets, and a query returns its
// rows and, unless it is a prepared run, observes its misestimation. All
// execution state lives in the run, so cached plans run concurrently.
func (db *DB) runCompiled(t *txn.Txn, st *statement, cp *compile.CompiledPlan) (*Result, error) {
	if cp.DML {
		return db.execDML(t, st, cp)
	}
	rows, run, err := exec.RunQuery(db.runtime(st.gov, t.Snapshot()), cp.Query, st.vals)
	st.run = run
	if err != nil {
		return nil, err
	}
	if st.prep == nil {
		db.observeMiss(cp.Query, float64(len(rows)))
	}
	return queryResult(cp.Query, rows), nil
}

// queryResult materializes a query's rows as native Go values (see
// nativeRows).
func queryResult(q *plan.Query, rows []value.Row) *Result {
	out := make([][]any, len(rows))
	nativeRows(out, rows)
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

// observeMiss records a finished SELECT's misestimation q-error — its
// root's compile-time row estimate against the rows it returned — in the
// systemr_estimate_miss_factor histogram. It is an observation only: plans
// and statistics change only through DDL and UPDATE STATISTICS. Prepared
// runs are not observed, since a host variable's estimate is value-blind
// and its miss measures the bindings, not the statistics.
func (db *DB) observeMiss(q *plan.Query, actual float64) {
	db.metrics.estMissFactor.Observe(compile.MissFactor(q.Root.Est().Rows, actual))
}

// explainedNorm recovers a statement's normalized text from its EXPLAIN
// wrapper's, so EXPLAIN shares (and reports on) the plain statement's cache
// slot.
func explainedNorm(norm string) string {
	norm = strings.TrimPrefix(norm, "EXPLAIN ")
	return strings.TrimPrefix(norm, "ANALYZE ")
}

// execExplain plans (and for EXPLAIN ANALYZE, which the parser allows only
// on a SELECT, also executes) the wrapped statement under the same governor
// as any other statement: a canceled context or exhausted budget aborts it,
// and ANALYZE's execution is governed exactly like a plain SELECT. The plan
// comes through the plan cache — sharing the plain statement's slot — and
// is annotated with a note when it was served from cache.
func (db *DB) execExplain(cur *txn.Txn, st *statement, ex *sql.ExplainStmt) (*Result, error) {
	if err := st.gov.Check(); err != nil {
		return nil, err
	}
	cp, hit, err := db.resolvePlan(st.gov, explainedNorm(st.norm), ex.Stmt, st.vals)
	if err != nil {
		return nil, err
	}
	q := cp.Query
	var est plan.Estimates
	var cacheNote string
	if hit {
		cacheNote = fmt.Sprintf("plan cache: hit (compiled at catalog version %d)\n", cp.Version)
		if cp.Family != "" {
			// Another statement's literals may have priced the plan.
			est = core.Cost(q, db.OptimizerConfig(), st.vals)
		}
	}
	if !ex.Analyze {
		return &Result{Plan: q.ExplainWith(est, st.vals...) + cacheNote}, nil
	}
	rows, run, analysis, err := exec.RunQueryAnalyze(db.runtime(st.gov, cur.Snapshot()), q, st.vals)
	st.run = run
	if err != nil {
		return nil, err
	}
	db.observeMiss(q, float64(len(rows)))
	analysis.Est = est
	return &Result{Plan: analysis.Format(core.DefaultW) + cacheNote}, nil
}

// execDML runs a DELETE or UPDATE's resolved plan. The optimizer's chosen
// access path locates the targets under the statement's snapshot, so the
// tuples a writer modifies are exactly the tuples it sees, and every target
// is collected before the first mutation. Then, per target, it ticks the
// governor and deletes; UPDATE is mark+insert per row: the old version is
// delete-marked in place (older snapshots keep seeing it) and the new
// version links back to it. Undo reverses both halves — removing the new
// version and clearing the old one's mark. System catalogs are read-only.
func (db *DB) execDML(cur *txn.Txn, st *statement, cp *compile.CompiledPlan) (*Result, error) {
	t := cp.Query.Block.Rels[0].Table
	if t.System {
		return nil, fmt.Errorf("systemr: %s is a read-only system catalog", t.Name)
	}
	targets, evals, err := exec.CollectTargets(db.runtime(st.gov, cur.Snapshot()), cp.Query, st.vals)
	st.run = &exec.Stats{SubqueryEvals: evals, Rows: len(targets)}
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := st.gov.Tick(); err != nil {
			return nil, err
		}
		if err := cur.Delete(t, tg.TID, tg.Row); err != nil {
			return nil, err
		}
		if len(cp.Sets) > 0 {
			row := tg.Row.Clone()
			for i, c := range cp.Sets {
				row[c] = tg.Sets[i]
			}
			if _, err := cur.Insert(t, row, tg.TID); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Affected: len(targets)}, nil
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
// name — the rsql shell's \d command — under the shared catalog lock; a
// failed acquisition (Config.LockTimeout) is reported in their place.
func (db *DB) Tables() string {
	held, err := db.locks.AcquireContext(context.Background(), catalogShared)
	if err != nil {
		return fmt.Sprintf("systemr: tables: %v\n", err)
	}
	defer held.Release()
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
