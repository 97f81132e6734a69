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
// direct or summarized through a call, where a call through an interface
// counts for every implementation it may dispatch to — a held rank >= the
// acquired rank is reported. That is what keeps a page visit's callback
// (storage.VersionVisitor) from fetching a page under the latch. Function
// literals are walked as their own scopes (they run with their own held
// set) but their acquisitions still count toward the enclosing function's
// summary, conservatively.

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

// rankWalker walks one function body statement by statement, carrying the
// set of held ranked mutexes along every path: it maps each held mutex's
// rank to its hold count (counting keeps re-entrant RLocks and unbalanced
// branches from going negative), and where paths join it keeps the
// per-rank minimum. Meeting branches, rather than counting cumulatively,
// tracks the lock manager's `mu.Unlock(); select { case: mu.Lock(); return
// }; mu.Lock()` hand-off correctly. The per-construct rules:
//
//   - if: the then and else states meet; with no else, the entry state
//     stands in for it.
//   - for/range: the loop head's state is the meet of the entry and every
//     path that loops back (falls off the body or continues, then runs
//     the post statement). The body is walked from the entry, and again
//     from the head while the paths that loop back lower it. The exit
//     state is the meet of every break that targets the loop and, unless
//     the for has no condition, the head.
//   - switch/type switch: the meet of every clause that falls out or
//     breaks; the entry state joins only when there is no default. A
//     fallthrough carries its state into the next clause.
//   - select: the meet of its clauses.
//   - a labeled break or continue targets its label; goto ends the path.
//   - function literals are not entered: each is its own scope.
type rankWalker struct {
	pass    *ProgramPass
	fn      *CallNode
	summary map[*CallNode]acquireSummary
	// reported holds (pos, rank, held rank) of each finding: a loop body
	// may be walked twice.
	reported map[[3]int]bool

	targets []*flowTarget
	label   string // label of the statement being entered
	fall    path   // state carried by a fallthrough
}

type heldRanks = map[int]int

// path is the held set at one point of the walk; a dead path (after a
// return, break, continue or goto) carries none.
type path struct {
	held heldRanks
	live bool
}

// flowTarget is a construct a break can leave, with the meet of the paths
// that leave it; a loop also collects the paths that continue it.
type flowTarget struct {
	label string
	loop  bool
	out   path
	cont  path
}

func (w *rankWalker) walkBody(body *ast.BlockStmt) {
	w.stmts(body.List, heldRanks{})
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

// meetHeld returns the held set where two paths join; it updates neither.
func meetHeld(a, b heldRanks) heldRanks {
	m := heldRanks{}
	for r, n := range a {
		if n = min(n, b[r]); n > 0 {
			m[r] = n
		}
	}
	return m
}

func joinPath(acc *path, p path) {
	switch {
	case !p.live:
	case !acc.live:
		*acc = p
	default:
		acc.held = meetHeld(acc.held, p.held)
	}
}

func (w *rankWalker) stmts(list []ast.Stmt, held heldRanks) path {
	for _, st := range list {
		p := w.stmt(st, held)
		if !p.live {
			return p
		}
		held = p.held
	}
	return path{held, true}
}

func (w *rankWalker) stmt(st ast.Stmt, held heldRanks) path {
	label := w.label
	w.label = ""
	switch st := st.(type) {
	case *ast.BlockStmt:
		return w.stmts(st.List, held)
	case *ast.LabeledStmt:
		w.label = st.Label.Name
		return w.stmt(st.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.node(r, held)
		}
		return path{}
	case *ast.DeferStmt:
		// A deferred unlock releases at return, so the mutex stays held for
		// the rest of the walk; a deferred ranked acquisition (rare) is
		// checked at the defer site, conservatively.
		if _, op, ok := mutexLockOp(w.fn.Pkg.Info, st.Call); !ok || op > 0 {
			w.node(st.Call, held)
		}
		return path{held, true}
	case *ast.GoStmt:
		// The goroutine runs with its own held set.
		return path{held, true}
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			joinPath(&w.target(st).out, path{held, true})
		case token.CONTINUE:
			joinPath(&w.target(st).cont, path{held, true})
		case token.FALLTHROUGH:
			w.fall = path{held, true}
		}
		return path{}
	case *ast.IfStmt:
		if st.Init != nil {
			w.node(st.Init, held)
		}
		w.node(st.Cond, held)
		out := w.stmts(st.Body.List, maps.Clone(held))
		els := path{held, true}
		if st.Else != nil {
			els = w.stmt(st.Else, held)
		}
		joinPath(&out, els)
		return out
	case *ast.ForStmt:
		if st.Init != nil {
			w.node(st.Init, held)
		}
		if st.Cond != nil {
			w.node(st.Cond, held)
		}
		return w.loop(label, st.Body, st.Post, held, st.Cond != nil)
	case *ast.RangeStmt:
		w.node(st.X, held)
		return w.loop(label, st.Body, nil, held, true)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.node(st.Init, held)
		}
		if st.Tag != nil {
			w.node(st.Tag, held)
		}
		return w.clauses(st.Body, label, held, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.node(st.Init, held)
		}
		w.node(st.Assign, held)
		return w.clauses(st.Body, label, held, true)
	case *ast.SelectStmt:
		return w.clauses(st.Body, label, held, false)
	default:
		w.node(st, held)
		return path{held, true}
	}
}

// clauses walks the clauses of a switch or select: each clause's header
// (case list or communication) is applied to the entry state, and its body
// walked from a copy. bypass says whether flow may skip every clause, as in
// a switch with no default.
func (w *rankWalker) clauses(body *ast.BlockStmt, label string, held heldRanks, bypass bool) path {
	tg := w.push(label, false)
	defer w.pop()
	var fall path
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.node(e, held)
			}
			bypass = bypass && c.List != nil
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.node(c.Comm, held)
			}
			stmts = c.Body
		}
		in := path{maps.Clone(held), true}
		joinPath(&in, fall)
		w.fall = path{}
		joinPath(&tg.out, w.stmts(stmts, in.held))
		fall = w.fall
	}
	if bypass {
		joinPath(&tg.out, path{held, true})
	}
	return tg.out
}

// loop walks a for or range body from head, the entry state, until the
// head is stable, and returns the state on leaving the loop. exits says
// whether flow may leave from the head (a condition or a range).
func (w *rankWalker) loop(label string, body *ast.BlockStmt, post ast.Stmt, head heldRanks, exits bool) path {
	tg := w.push(label, true)
	defer w.pop()
	for {
		tg.cont = path{}
		back := w.stmts(body.List, maps.Clone(head))
		joinPath(&back, tg.cont)
		if !back.live {
			break
		}
		if post != nil {
			w.node(post, back.held)
		}
		next := meetHeld(head, back.held)
		if maps.Equal(next, head) {
			break
		}
		head = next
	}
	if exits {
		joinPath(&tg.out, path{head, true})
	}
	return tg.out
}

// target finds the construct a break or continue leaves: the one its label
// names, else the innermost one (the innermost loop, for a continue).
func (w *rankWalker) target(st *ast.BranchStmt) *flowTarget {
	for i := len(w.targets) - 1; ; i-- {
		tg := w.targets[i]
		if st.Label != nil && st.Label.Name == tg.label ||
			st.Label == nil && (tg.loop || st.Tok == token.BREAK) {
			return tg
		}
	}
}

func (w *rankWalker) push(label string, loop bool) *flowTarget {
	tg := &flowTarget{label: label, loop: loop}
	w.targets = append(w.targets, tg)
	return tg
}

func (w *rankWalker) pop() { w.targets = w.targets[:len(w.targets)-1] }

// node visits a simple statement or expression in source order, updating
// held in place and checking calls without entering function literals.
func (w *rankWalker) node(n ast.Node, held heldRanks) {
	ast.Inspect(n, func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			w.checkCall(held, call)
		}
		_, lit := nd.(*ast.FuncLit)
		return !lit
	})
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
	// against what we hold here. A call through an interface is checked
	// against every implementation it may dispatch to.
	f := calleeFunc(info, call)
	if f == nil {
		return
	}
	g := w.pass.Prog.CallGraph
	callees := g.Dispatch[f]
	if callee := g.FuncOf(f); callee != nil {
		callees = []*CallNode{callee}
	}
	for _, callee := range callees {
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
