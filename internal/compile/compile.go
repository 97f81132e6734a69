// Package compile is the statement compilation pipeline: parse → semantic
// analysis → access path selection, producing an immutable CompiledPlan that
// can be executed many times. It compiles every planned statement: a SELECT,
// and an UPDATE or DELETE, whose plan locates the tuples it writes. It is
// the repo's analog of System R's "compile once, run many" access modules:
// a plan embeds the catalog state (table/index pointers, statistics-derived
// costs) of compile time, records the catalog version it was compiled
// under, and is valid exactly while the catalog still reports that version. DDL and UPDATE STATISTICS bump the
// version, so stale plans are never executed — they are recompiled, the way
// System R invalidated and recompiled access modules when a dependency
// (table, index, statistics) changed.
//
// A shared, concurrency-safe LRU Cache (cache.go) sits in front of the
// pipeline; entries carry their compile-time version and are invalidated on
// lookup when the catalog has moved. An ad hoc statement is keyed by its text
// after sql.Lift has lifted its comparison literals to host variables, the
// lifted values' kinds (ArgSig) and the selectivity class of every boolean
// factor that reads one (core.Classifier): texts that differ only in
// literals of one class share a plan, compiled with the first one's values
// and run with each statement's own. A prepared statement is keyed by its
// normalized text alone, and its ? stay value-blind.
package compile

import (
	"cmp"
	"math"
	"slices"
	"strings"
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
// table written, and DDL exclusively locks the catalog. The engine reads
// under MVCC snapshots (snapshotReads true), so tables only read take no
// locks at all — visibility rules at the RSS boundary isolate readers from
// in-flight writers, so readers never block and are never blocked. With
// snapshotReads false they take shared locks (pure two-phase locking).
// Every statement still locks the catalog shared, pinning the catalog
// version against DDL. The set depends only on the statement text, so it is
// stored on the compiled plan and stays valid across recompilations. It is
// canonical (see canonical), the form lock.Txn.AcquireContext grants as
// given.
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
	return canonical(reqs)
}

// canonical puts a lock set in the one order every lock set is granted in,
// in place: table names upper-cased, one request per table with exclusive
// winning, the catalog lock first and the tables after it by name. One
// total order keeps statement-scope acquisitions free of deadlock.
func canonical(reqs []lock.Request) []lock.Request {
	for i := range reqs {
		reqs[i].Table = strings.ToUpper(reqs[i].Table)
	}
	slices.SortFunc(reqs, func(a, b lock.Request) int {
		// Exclusive sorts before shared, so the compaction keeps it.
		return cmp.Or(strings.Compare(lockOrder(a), lockOrder(b)), cmp.Compare(b.Mode, a.Mode))
	})
	return slices.CompactFunc(reqs, func(a, b lock.Request) bool { return a.Table == b.Table })
}

// lockOrder is a request's sort key in a canonical set: its table, or ""
// for the catalog lock, which comes first.
func lockOrder(r lock.Request) string {
	if r.Table == CatalogLock {
		return ""
	}
	return r.Table
}

// CompiledPlan is the immutable product of one trip through the pipeline —
// the access module. Nothing in it changes after compilation, so it is safe
// to execute concurrently from many goroutines: all execution state lives in
// the executor's per-run context. Only a catalog version bump (DDL or UPDATE
// STATISTICS) retires it.
type CompiledPlan struct {
	// Norm is the statement's normalized text (sql.Normalize, or sql.Lift
	// with its literals lifted) — the cache key base and the parseable text
	// a stale plan recompiles from.
	Norm string
	// Version is the catalog version the plan was compiled under; the plan
	// is executable exactly while the catalog still reports it.
	Version uint64
	// Query is the optimized physical plan.
	Query *plan.Query
	// Locks is the statement's lock set (derived from the text, stable
	// across recompiles): acquire these before validating Version.
	Locks []lock.Request
	// Family keys what the plans of one lifted text share, Key(Norm,
	// ArgSig(lits)); Classes picks a statement's plan within the family
	// from its literals. Both are zero for a text that lifted nothing.
	Family  string
	Classes *core.Classifier
	// DML marks the plan of an UPDATE or DELETE: its rows are the targets'
	// stored images, each followed by the values of Sets, an UPDATE's SET
	// columns in SET order.
	DML  bool
	Sets []int
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

// Pipeline compiles statements against one catalog with one optimizer
// configuration. It is stateless apart from a compilation counter and safe
// for concurrent use (compilation itself must run under the engine's shared
// catalog lock, like any statement).
type Pipeline struct {
	cat          *catalog.Catalog
	cfg          core.Config
	compilations atomic.Int64
}

// NewPipeline creates a compile pipeline over cat. Compiled plans carry the
// MVCC lock sets: no shared table locks on reads.
func NewPipeline(cat *catalog.Catalog, cfg core.Config) *Pipeline {
	return &Pipeline{cat: cat, cfg: cfg}
}

// Compilations returns how many plans the optimizer has produced — the
// counter cache-hit tests assert does NOT move on a repeated statement.
func (p *Pipeline) Compilations() int64 { return p.compilations.Load() }

// Compile runs the pipeline on a SELECT, UPDATE or DELETE: semantic
// analysis, then optimization, under the statement's governor budget
// (compilation is statement work too — a canceled or deadline-expired
// statement aborts between phases). norm is the statement's normalized
// text, and stmt its parse, or nil to parse norm here; gov may be nil
// (ungoverned). lits are the values of the literals sql.Lift lifted out of
// norm, nil when it lifted none: the optimizer peeks at them, and the plan
// reads each run's own. Every compile path funnels through here, so
// Compilations counts every optimizer invocation.
func (p *Pipeline) Compile(gov *governor.Budget, norm string, stmt sql.Statement, lits []value.Value) (*CompiledPlan, error) {
	if err := gov.Check(); err != nil {
		return nil, err
	}
	if stmt == nil {
		var err error
		if stmt, err = sql.Parse(norm); err != nil {
			return nil, err
		}
	}
	version := p.cat.Version()
	blk, sets, err := sem.AnalyzeLifted(stmt, p.cat, lits)
	if err != nil {
		return nil, err
	}
	if err := gov.Check(); err != nil {
		return nil, err
	}
	p.compilations.Add(1)
	q, err := core.New(p.cat, p.cfg).Optimize(blk)
	if err != nil {
		return nil, err
	}
	_, query := stmt.(*sql.SelectStmt)
	cp := &CompiledPlan{
		Norm:    norm,
		Version: version,
		Query:   q,
		Locks:   LockRequests(stmt, true),
		DML:     !query,
		Sets:    sets,
	}
	if len(lits) > 0 {
		cp.Family = Key(norm, ArgSig(lits))
		cp.Classes = core.NewClassifier(p.cfg, blk)
	}
	return cp, nil
}

// Key builds a plan-cache key from normalized text and a value-kind
// signature (ArgSig): a prepared statement's key passes it empty, since its
// ? are value-blind; a lifted text passes its literals' kinds, so A = 5,
// A = 5.0 and A = 'x' never share a plan. That key names the lifted text's
// family, and Key(family, class signature) one plan in it. The catalog
// version is not part of the key — entries carry their compile-time
// version and are invalidated on lookup — so one statement occupies one
// slot instead of leaking an entry per epoch.
func Key(norm, argSig string) string {
	if argSig == "" {
		return norm
	}
	return norm + "\x00" + argSig
}

// ArgSig summarizes argument or lifted-literal value kinds as one letter
// each.
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
