// Package compile is the statement compilation pipeline: parse → semantic
// analysis → access path selection, producing an immutable CompiledPlan that
// can be executed many times. It is the repo's analog of System R's
// "compile once, run many" access modules: a plan embeds the catalog state
// (table/index pointers, statistics-derived costs) of compile time, records
// the catalog version it was compiled under, and is valid exactly while the
// catalog still reports that version. DDL and UPDATE STATISTICS bump the
// version, so stale plans are never executed — they are recompiled, the way
// System R invalidated and recompiled access modules when a dependency
// (table, index, statistics) changed.
//
// A shared, concurrency-safe LRU Cache (cache.go) sits in front of the
// pipeline, keyed by normalized SQL text; entries carry their compile-time
// version and are invalidated on lookup when the catalog has moved.
package compile

import (
	"fmt"
	"math"
	"sync/atomic"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/governor"
	"systemr/internal/lock"
	"systemr/internal/plan"
	"systemr/internal/sem"
	"systemr/internal/sql"
	"systemr/internal/value"
)

// CatalogLock is the pseudo-table serializing DDL against all statements:
// every statement locks it shared, DDL and UPDATE STATISTICS lock it
// exclusively. Holding it shared therefore pins the catalog version.
const CatalogLock = "__CATALOG__"

// LockRequests derives a statement's table lock set: exclusive on every
// table written, and DDL exclusively locks the catalog. Tables only read
// take shared locks when snapshotReads is false (pure two-phase locking);
// under MVCC snapshot reads they take none at all — visibility rules at the
// RSS boundary isolate readers from in-flight writers, so readers never
// block and are never blocked. Every statement still locks the catalog
// shared, pinning the catalog version against DDL. The set depends only on
// the statement text and the engine mode, so it is stored on the compiled
// plan and stays valid across recompilations.
func LockRequests(stmt sql.Statement, snapshotReads bool) []lock.Request {
	reqs := []lock.Request{{Table: CatalogLock, Mode: lock.Shared}}
	switch stmt.(type) {
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.DropTableStmt,
		*sql.DropIndexStmt, *sql.UpdateStatsStmt:
		return []lock.Request{{Table: CatalogLock, Mode: lock.Exclusive}}
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		// Transaction control moves lock ownership between statement and
		// transaction scope; it takes no locks of its own.
		return nil
	}
	read, write := sql.TablesReferenced(stmt)
	if !snapshotReads {
		for _, t := range read {
			reqs = append(reqs, lock.Request{Table: t, Mode: lock.Shared})
		}
	}
	for _, t := range write {
		reqs = append(reqs, lock.Request{Table: t, Mode: lock.Exclusive})
	}
	return reqs
}

// CompiledPlan is the immutable product of one trip through the pipeline —
// the access module. It is safe to execute concurrently from many
// goroutines: all execution state lives in the executor's per-run context.
type CompiledPlan struct {
	// Norm is the statement's normalized text (sql.Normalize) — the cache
	// key base and the parseable text a stale plan recompiles from.
	Norm string
	// Version is the catalog version the plan was compiled under; the plan
	// is executable exactly while the catalog still reports it.
	Version uint64
	// Query is the optimized physical plan.
	Query *plan.Query
	// Locks is the statement's lock set (derived from the text, stable
	// across recompiles): acquire these before validating Version.
	Locks []lock.Request
	// Reads lists the tables the statement reads — the tables whose
	// statistics a feedback-triggered refresh recollects.
	Reads []string

	// recompile is set once an execution's misestimation q-error crosses
	// the engine's recompile threshold; the next execution's single winner
	// takes it and refreshes statistics, after which the catalog version
	// bump retires the plan through the ordinary staleness path.
	recompile atomic.Bool
}

// MissFactor is the symmetric misestimation q-error max(est,act)/min(est,act),
// always >= 1, with both sides floored at one row so empty results stay
// finite. A factor of 1 is a perfect estimate; 10 means the optimizer was an
// order of magnitude off in either direction.
func MissFactor(estimated, actual float64) float64 {
	est, act := math.Max(estimated, 1), math.Max(actual, 1)
	if est > act {
		return est / act
	}
	return act / est
}

// MarkRecompile flags the plan for statistics refresh + recompilation.
func (cp *CompiledPlan) MarkRecompile() { cp.recompile.Store(true) }

// NeedsRecompile reports whether the plan has been marked.
func (cp *CompiledPlan) NeedsRecompile() bool { return cp.recompile.Load() }

// TakeRecompile claims the recompile flag; exactly one concurrent caller
// wins, so one statistics refresh runs per marked plan.
func (cp *CompiledPlan) TakeRecompile() bool {
	return cp.recompile.CompareAndSwap(true, false)
}

// Pipeline compiles statements against one catalog with one optimizer
// configuration. It is stateless apart from a compilation counter and safe
// for concurrent use (compilation itself must run under the engine's shared
// catalog lock, like any statement).
type Pipeline struct {
	cat           *catalog.Catalog
	cfg           core.Config
	snapshotReads bool
	compilations  atomic.Int64
}

// NewPipeline creates a compile pipeline over cat. snapshotReads selects
// the MVCC lock sets (no shared table locks on reads) for compiled plans.
func NewPipeline(cat *catalog.Catalog, cfg core.Config, snapshotReads bool) *Pipeline {
	return &Pipeline{cat: cat, cfg: cfg, snapshotReads: snapshotReads}
}

// Compilations returns how many plans the optimizer has produced — the
// counter cache-hit tests assert does NOT move on a repeated statement.
func (p *Pipeline) Compilations() int64 { return p.compilations.Load() }

// PlanBlock runs access path selection (or the naive baseline) over an
// analyzed block. All compile paths — SELECT, EXPLAIN, DML match planning —
// funnel through here, so Compilations counts every optimizer invocation.
func (p *Pipeline) PlanBlock(blk *sem.Block) (*plan.Query, error) {
	p.compilations.Add(1)
	return core.New(p.cat, p.cfg).Optimize(blk)
}

// CompileSelect runs the back half of the pipeline on an already-parsed
// SELECT: semantic analysis, then optimization, under the statement's
// governor budget (compilation is statement work too — a canceled or
// deadline-expired statement aborts between phases). norm is the
// statement's normalized text; gov may be nil (ungoverned).
func (p *Pipeline) CompileSelect(gov *governor.Budget, sel *sql.SelectStmt, norm string) (*CompiledPlan, error) {
	if err := gov.Check(); err != nil {
		return nil, err
	}
	version := p.cat.Version()
	blk, err := sem.Analyze(sel, p.cat)
	if err != nil {
		return nil, err
	}
	if err := gov.Check(); err != nil {
		return nil, err
	}
	q, err := p.PlanBlock(blk)
	if err != nil {
		return nil, err
	}
	reads, _ := sql.TablesReferenced(sel)
	return &CompiledPlan{
		Norm:    norm,
		Version: version,
		Query:   q,
		Locks:   LockRequests(sel, p.snapshotReads),
		Reads:   reads,
	}, nil
}

// CompileSelectText is the full pipeline from statement text: parse,
// normalize, analyze, optimize. Non-SELECT statements are rejected.
func (p *Pipeline) CompileSelectText(gov *governor.Budget, text string) (*CompiledPlan, error) {
	if err := gov.Check(); err != nil {
		return nil, err
	}
	parsed, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("compile: expected a SELECT statement, got %T", parsed)
	}
	norm, _ := sql.Normalize(text)
	return p.CompileSelect(gov, sel, norm)
}

// Key builds the plan-cache key from normalized text and a host-variable
// type signature, which the engine always passes empty: compilation never
// sees the bindings, so every signature would hold the same plan. The
// catalog version is not part of the key — entries carry
// their compile-time version and are invalidated on lookup — so one
// statement occupies one slot instead of leaking an entry per epoch.
func Key(norm, argSig string) string {
	if argSig == "" {
		return norm
	}
	return norm + "\x00" + argSig
}

// ArgSig summarizes host-variable argument types as one letter each.
//
// Deprecated: the engine keys prepared runs on the normalized text alone.
// ArgSig stays only because bench/trace.go calls it.
func ArgSig(args []value.Value) string {
	if len(args) == 0 {
		return ""
	}
	sig := make([]byte, len(args))
	for i, a := range args {
		switch a.Kind {
		case value.KindInt:
			sig[i] = 'I'
		case value.KindFloat:
			sig[i] = 'F'
		case value.KindString:
			sig[i] = 'S'
		default:
			sig[i] = 'N'
		}
	}
	return string(sig)
}
