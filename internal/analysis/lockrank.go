package analysis

// lockrank enforces a declared lock-acquisition order across the whole
// program. The engine's runtime deadlock detector (PR 6) can only observe a
// cycle among table locks once it happens; lockrank makes the hierarchy
// above and below the table locks a build-time property: every mutex the
// engine owns has a rank, and a function may only acquire locks of strictly
// greater rank than anything it already holds — directly or through any
// call chain (static calls plus interface dispatch, via the program call
// graph's per-function summaries).
//
// The declared order, outermost first (see DESIGN.md §14 for the rationale
// of each edge):
//
//	rank  lock
//	  10  lock table locks (Manager.Acquire*/TryAcquire, Txn.AcquireContext)
//	  20  systemr.DB.mu            (last-statement stats)
//	  30  catalog.Catalog.mu       (schema/statistics)
//	  40  txn.Registry.mu          (XID allocation, snapshot capture)
//	  50  compile.Cache.mu         (plan cache)
//	  55  metrics.Registry.mu      (instrument registration/scrape)
//	  60  lock.Manager.mu          (lock-manager internal state)
//	  80  storage.BufferPool.mu    (LRU structural lock)
//	  90  storage.Disk.mu          (page-table growth)
//	 100  storage.Page.mu          (per-page latch; innermost leaf)
//
// In particular: no lock.Manager call while holding a buffer-pool, page,
// or registry mutex — a blocked table-lock wait would then hold a leaf
// mutex indefinitely, stalling every reader of that structure in a shape
// the wait-for-graph cannot see (it only tracks table locks).
//
// Mechanics: each function gets a summary — the set of ranks it may acquire
// while executing, propagated to a fixpoint over the call graph. Then every
// function body is walked in source order tracking the set of ranked
// mutexes currently held (mu.Lock()/RLock() add, mu.Unlock()/RUnlock()
// remove, deferred unlocks hold to function end); at each acquisition —
// direct or summarized through a call — a held rank >= the acquired rank is
// reported. Function literals are walked as their own scopes (they run with
// their own held set) but their acquisitions still count toward the
// enclosing function's summary, conservatively.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// LockRank is the lock-ordering analyzer.
var LockRank = &Analyzer{
	Name:       "lockrank",
	Doc:        "mutexes and table locks must be acquired in the declared rank order on every call path",
	RunProgram: runLockRank,
}

// rankTableLock is the rank of a lock.Manager table-lock acquisition — the
// outermost tier: it can block indefinitely, so nothing may be held across
// it.
const rankTableLock = 10

// lockRanks maps "pkgtail.Type.field" mutex identities to their rank.
// Unlisted mutexes are unranked and exempt (local mutexes, fixture types
// outside the table) — the table is the declaration of the engine's
// hierarchy, mirrored in DESIGN.md §14.
var lockRanks = map[string]int{
	"systemr.DB.mu":         20,
	"catalog.Catalog.mu":    30,
	"txn.Registry.mu":       40,
	"compile.Cache.mu":      50,
	"metrics.Registry.mu":   55,
	"lock.Manager.mu":       60,
	"storage.BufferPool.mu": 80,
	"storage.Disk.mu":       90,
	"storage.Page.mu":       100,
}

// lockRankName renders a rank for diagnostics.
func lockRankName(rank int) string {
	if rank == rankTableLock {
		return "lock.Manager table locks"
	}
	for key, r := range lockRanks {
		if r == rank {
			return key
		}
	}
	return "?"
}

// acquireSummary is one function's may-acquire set: rank → one example
// position (the acquisition site, for the diagnostic chain).
type acquireSummary map[int]token.Pos

func runLockRank(pass *ProgramPass) error {
	g := pass.Prog.CallGraph
	nodes := g.SortedNodes()

	// Per-function direct acquisitions (locks taken anywhere in the body,
	// closures included — a closure runs on some goroutine while the
	// program is in this function's dynamic extent or later; conservative),
	// then propagated to a fixpoint: a function may acquire everything its
	// callees may acquire.
	summary := make(map[*CallNode]acquireSummary, len(nodes))
	for _, n := range nodes {
		s := acquireSummary{}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			if rank, ok := rankedAcquisition(n.Pkg.Info, call); ok {
				if _, have := s[rank]; !have {
					s[rank] = call.Pos()
				}
			}
			return true
		})
		summary[n] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			s := summary[n]
			for _, e := range n.Out {
				for r, p := range summary[e.Callee] {
					if _, have := s[r]; !have {
						s[r] = p
						changed = true
					}
				}
			}
		}
	}

	// Walk each function with held-set tracking.
	for _, n := range nodes {
		w := &rankWalker{pass: pass, fn: n, summary: summary, reported: map[[3]int]bool{}}
		w.walkBody(n.Decl.Body)
	}
	return nil
}

// rankedAcquisition classifies call as a ranked lock acquisition: a
// Lock/RLock on a mutex field in the rank table, or a lock.Manager
// table-lock grant.
func rankedAcquisition(info *types.Info, call *ast.CallExpr) (rank int, ok bool) {
	if rank, op, ok := mutexLockOp(info, call); ok {
		return rank, op > 0
	}
	f := calleeFunc(info, call)
	if f == nil {
		return 0, false
	}
	switch f.Name() {
	case "Acquire", "AcquireContext", "TryAcquire":
		if n := recvNamed(f); n != nil {
			tn := n.Obj()
			if tn.Pkg() != nil && pathTail(tn.Pkg().Path()) == "lock" &&
				(tn.Name() == "Manager" || tn.Name() == "Txn") {
				return rankTableLock, true
			}
		}
	}
	return 0, false
}

// mutexLockOp classifies a method call on a ranked mutex as acquire (+1)
// or release (-1), with the mutex's rank.
func mutexLockOp(info *types.Info, call *ast.CallExpr) (rank, op int, ok bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return 0, 0, false
	}
	switch f.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = +1
	case "Unlock", "RUnlock":
		op = -1
	default:
		return 0, 0, false
	}
	key, keyOK := mutexKey(info, call)
	if !keyOK {
		return 0, 0, false
	}
	rank, ranked := lockRanks[key]
	return rank, op, ranked
}

// mutexKey resolves the receiver of a sync.(RW)Mutex method call of the
// form `x.mu.Lock()` to its "pkgtail.Type.field" identity.
func mutexKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// The method must come from sync.
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	v, _ := info.Uses[field.Sel].(*types.Var)
	if v == nil || !v.IsField() {
		return "", false
	}
	s, ok := info.Selections[field]
	if !ok {
		return "", false
	}
	t := s.Recv()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return "", false
	}
	return pathTail(tn.Pkg().Path()) + "." + tn.Name() + "." + v.Name(), true
}

// rankWalker is the flow transfer for one function body: the state maps
// each held ranked mutex's rank to its hold count (counting keeps
// re-entrant RLocks and unbalanced branches from going negative), and the
// meet keeps the per-rank minimum. Meeting branches, rather than counting
// cumulatively, tracks the lock manager's `mu.Unlock(); select { case:
// mu.Lock(); return }; mu.Lock()` hand-off correctly.
type rankWalker struct {
	pass    *ProgramPass
	fn      *CallNode
	summary map[*CallNode]acquireSummary
	// reported holds (pos, rank, held rank) of each finding: a loop body
	// may be walked twice.
	reported map[[3]int]bool
}

type heldRanks = map[int]int

func (w *rankWalker) walkBody(body *ast.BlockStmt) {
	walkFlow[heldRanks](w, body, heldRanks{})
	// Each function literal, goroutine bodies included, runs with its own
	// held set (it executes later, from some other dynamic context).
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if ok {
			w.walkBody(lit.Body)
		}
		return !ok
	})
}

func (w *rankWalker) copy(held heldRanks) heldRanks { return maps.Clone(held) }
func (w *rankWalker) equal(a, b heldRanks) bool     { return maps.Equal(a, b) }

func (w *rankWalker) meet(a, b heldRanks) heldRanks {
	m := heldRanks{}
	for r, n := range a {
		if n = min(n, b[r]); n > 0 {
			m[r] = n
		}
	}
	return m
}

func (w *rankWalker) ret(st *ast.ReturnStmt, held heldRanks) {
	for _, r := range st.Results {
		w.node(r, held)
	}
}

// deferGo: a deferred unlock releases at return, so the mutex stays held
// for the rest of the walk; a deferred ranked acquisition (rare) is checked
// at the defer site, conservatively. A go statement is not checked here:
// the goroutine runs with its own held set.
func (w *rankWalker) deferGo(st ast.Stmt, held heldRanks) heldRanks {
	if d, ok := st.(*ast.DeferStmt); ok {
		if _, op, ok := mutexLockOp(w.fn.Pkg.Info, d.Call); !ok || op > 0 {
			w.node(d.Call, held)
		}
	}
	return held
}

// node visits a simple statement or expression in source order, checking
// calls without entering function literals.
func (w *rankWalker) node(n ast.Node, held heldRanks) heldRanks {
	ast.Inspect(n, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			w.checkCall(held, call)
		}
		_, lit := nd.(*ast.FuncLit)
		return !lit
	})
	return held
}

// checkCall updates the held set and reports out-of-rank acquisitions.
func (w *rankWalker) checkCall(held heldRanks, call *ast.CallExpr) {
	info := w.fn.Pkg.Info
	// Mutex operation on a ranked mutex?
	if rank, op, ok := mutexLockOp(info, call); ok {
		if op > 0 {
			w.reportIfHeldConflicts(held, call.Pos(), rank, nil)
			held[rank]++
		} else if held[rank] > 0 {
			held[rank]--
		}
		return
	}
	// Table-lock acquisition?
	if rank, ok := rankedAcquisition(info, call); ok && rank == rankTableLock {
		w.reportIfHeldConflicts(held, call.Pos(), rankTableLock, nil)
		return
	}
	// A call with a summary: everything the callee may acquire is checked
	// against what we hold here.
	f := calleeFunc(info, call)
	if f == nil {
		return
	}
	callee := w.pass.Prog.CallGraph.FuncOf(f)
	if callee == nil {
		return
	}
	s := w.summary[callee]
	ranks := make([]int, 0, len(s))
	for r := range s {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		w.reportIfHeldConflicts(held, call.Pos(), r, callee)
	}
}

// reportIfHeldConflicts reports when a held rank forbids acquiring rank at
// pos; via names the callee the acquisition is reached through, when
// indirect.
func (w *rankWalker) reportIfHeldConflicts(held heldRanks, pos token.Pos, rank int, via *CallNode) {
	what := lockRankName(rank)
	for heldRank, count := range held {
		key := [3]int{int(pos), rank, heldRank}
		if count <= 0 || heldRank < rank || w.reported[key] {
			continue
		}
		w.reported[key] = true
		heldName := lockRankName(heldRank)
		if heldRank == rank && via == nil {
			// Direct re-acquisition of the same ranked mutex: self-deadlock
			// with sync.Mutex. Report it as its own shape.
			w.pass.Reportf(pos, "reacquires %s already held by this function (self-deadlock)", heldName)
			continue
		}
		if via != nil {
			w.pass.Reportf(pos,
				"call to %s may acquire %s (rank %d) while holding %s (rank %d): declared lock order requires %s before %s",
				funcDisplayName(via.Fn), what, rank, heldName, heldRank, what, heldName)
		} else {
			w.pass.Reportf(pos,
				"acquires %s (rank %d) while holding %s (rank %d): declared lock order requires %s before %s",
				what, rank, heldName, heldRank, what, heldName)
		}
	}
}
