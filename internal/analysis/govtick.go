package analysis

// govtick enforces the governor's invariant that no tuple- or
// page-producing loop runs ungoverned, so a canceled or over-budget
// statement aborts even when the work happens below the operator boundary
// (spill loops, page walks, run merges). Three rules share one governed
// set:
//
//   - local: inside internal/exec, internal/rss, and internal/xsort, every
//     loop whose body produces tuples or pages reaches a statement-governor
//     checkpoint itself;
//   - batch: those packages implement the batched operator protocol, whose
//     boundary ticks once per batch instead of once per row. That is only
//     safe if every NextBatch body still reaches a checkpoint at least once
//     per batch — directly, or by driving a governed producer — so a
//     canceled statement cannot run a whole batch (or, with interior loops,
//     arbitrarily long) per boundary tick;
//   - unticked reachability: anywhere else in the engine, a helper whose
//     loop relies on *its caller* having ticked is fine while every caller
//     ticks, and silently ungoverned once some entry point calls it with no
//     budget on the stack. Walking the call graph from every non-ticking
//     entry point, without entering a function that calls the budget
//     directly, every producing loop reached must tick locally; the finding
//     carries the unticked chain. cmd packages are exempt as loop sites
//     (drivers loop over results outside any statement) but still count as
//     entry points.
//
// A loop is governed when its body calls a *governor.Budget method
// directly, or calls only producers that are themselves governed. The
// governed set is computed once, program-wide, to a fixpoint: a function is
// governed when its body calls the budget directly or calls a governed
// function — so exec loops driving rss scan Next calls pass because rss's
// Next methods check the budget internally. A call through an interface
// that has an unexported method can only dispatch to the declaring
// package's own types, so it is governed once every one of them is — the
// executor's shared batch fill drives its row sources that way.
//
// Producers are: methods named Next/next/NextInto returning (..., bool, error);
// storage.BufferPool.Fetch; storage.Segment.Insert; and calls of
// function-typed values with a (..., bool, error) result shape (e.g. a
// sorter input). Calls of function values can never be proven governed, so
// loops driving them need their own checkpoint. (That a NextBatch body
// never reads the pool's DB-global IOStats for its fetch delta is the
// layering analyzer's stmtio rule, which covers the same packages.)

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
)

// GovTick is the governor-checkpoint analyzer.
var GovTick = &Analyzer{
	Name:       "govtick",
	Doc:        "tuple/page-producing loops must reach a governor budget check: locally in exec, rss, and xsort (NextBatch bodies once per batch), and anywhere reachable with no ticking caller",
	RunProgram: runGovTick,
}

// govtickPackages are the path tails the local and batch rules apply to.
var govtickPackages = map[string]bool{"exec": true, "rss": true, "xsort": true}

func runGovTick(pass *ProgramPass) error {
	g := pass.Prog.CallGraph
	governed := governedFuncs(pass.Prog)
	unticked := g.Reach(func(_, callee *CallNode) bool {
		return containsBudgetCall(callee.Pkg.Info, callee.Decl.Body)
	})
	for _, pkg := range pass.Prog.Pkgs {
		local := govtickPackages[pathTail(pkg.Path)]
		if !local && inCmd(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var node *CallNode
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					node = g.FuncOf(fn)
					if local && node != nil && (fd.Name.Name == "NextBatch" || fd.Name.Name == "nextBatch") && !governed[fn] {
						pass.Reportf(fd.Pos(),
							"%s fills a batch without a governor checkpoint: tick the budget or drive a governed producer at least once per batch", fd.Name.Name)
					}
				}
				// Each loop is reported once: the local rule covers its
				// packages, so unticked reachability only speaks elsewhere.
				_, exposed := unticked[node]
				switch {
				case local:
					ungovernedLoops(governed, pkg.Info, decl, func(loop ast.Node, call *ast.CallExpr) {
						pass.Reportf(loop.Pos(),
							"loop produces tuples/pages (%s) without a governor budget check; add a Budget.Tick/Check or call only governed producers",
							describeCall(call))
					})
				case exposed:
					ungovernedLoops(governed, pkg.Info, decl, func(loop ast.Node, call *ast.CallExpr) {
						pass.Reportf(loop.Pos(),
							"loop drives %s with no governor anywhere on the call stack: %s never ticks — add a Budget check here or in a caller",
							describeCall(call), unticked.Chain(node))
					})
				}
			}
		}
	}
	return nil
}

// ungovernedLoops calls report for each loop in n that drives an ungoverned
// producer (the first such call) without a checkpoint of its own.
func ungovernedLoops(governed map[*types.Func]bool, info *types.Info, n ast.Node, report func(loop ast.Node, call *ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		if containsBudgetCall(info, body) {
			return true
		}
		var offending *ast.CallExpr
		ast.Inspect(body, func(inner ast.Node) bool {
			if call, ok := inner.(*ast.CallExpr); ok && offending == nil {
				if kind, ok := classifyProducer(governed, info, call); kind != "" && !ok {
					offending = call
				}
			}
			return offending == nil
		})
		if offending != nil {
			report(n, offending)
		}
		return true
	})
}

// classifyProducer reports whether call produces tuples or pages, and if
// so whether the callee is known to contain its own governor checkpoint.
func classifyProducer(governed map[*types.Func]bool, info *types.Info, call *ast.CallExpr) (kind string, covered bool) {
	if f := calleeFunc(info, call); f != nil {
		if (f.Name() == "Next" || f.Name() == "next" || f.Name() == "NextInto") && producerShape(f.Type().(*types.Signature)) {
			return "Next", governed[f]
		}
		if isMethodOn(f, "Fetch", "storage", "BufferPool") {
			return "page fetch", governed[f]
		}
		if isMethodOn(f, "Insert", "storage", "Segment") {
			return "page insert", governed[f]
		}
		return "", false
	}
	// Dynamic call of a function-typed value: a producer if it has the
	// row-stream shape; never provably governed.
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return "", false
	}
	if sig, ok := tv.Type.Underlying().(*types.Signature); ok && producerShape(sig) {
		return "dynamic producer", false
	}
	return "", false
}

// producerShape matches result lists ending in (bool, error): the
// row-stream convention used by every Next in the tree.
func producerShape(sig *types.Signature) bool {
	res := sig.Results()
	n := res.Len()
	if n < 2 {
		return false
	}
	if !isErrorType(res.At(n - 1).Type()) {
		return false
	}
	b, ok := res.At(n - 2).Type().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// containsBudgetCall reports whether any call on a *governor.Budget occurs
// in n (function literals included: a checkpoint inside a closure invoked
// by the loop still counts, and over-approximating here only silences the
// lint, never breaks the build).
func containsBudgetCall(info *types.Info, n ast.Node) bool {
	return anyNode(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		f := calleeFunc(info, call)
		if f == nil {
			return false
		}
		r := recvNamed(f)
		return r != nil && r.Obj().Name() == "Budget" && r.Obj().Pkg() != nil &&
			pathTail(r.Obj().Pkg().Path()) == "governor"
	})
}

// governedFuncs computes the governed set once for the whole program: a
// declared function is governed when its body calls the budget directly or
// calls a governed function, and a sealed interface method is governed when
// every implementation is. Iterated to a fixpoint so delegating helpers
// inherit the property across package boundaries.
func governedFuncs(prog *Program) map[*types.Func]bool {
	governed := make(map[*types.Func]bool)
	callees := make(map[*types.Func][]*types.Func)
	for fn, n := range prog.CallGraph.Nodes {
		if containsBudgetCall(n.Pkg.Info, n.Decl.Body) {
			governed[fn] = true
			continue
		}
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			if call, ok := nd.(*ast.CallExpr); ok {
				if f := calleeFunc(n.Pkg.Info, call); f != nil {
					callees[fn] = append(callees[fn], f)
				}
			}
			return true
		})
	}
	sealed := make(map[*types.Func][]*types.Func)
	for _, pkg := range prog.Pkgs {
		maps.Copy(sealed, sealedDispatch(pkg.Types))
	}
	isGoverned := func(f *types.Func) bool { return governed[f] }
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if !governed[fn] && slices.ContainsFunc(cs, isGoverned) {
				governed[fn], changed = true, true
			}
		}
		for m, impls := range sealed {
			if !governed[m] && !slices.ContainsFunc(impls, func(f *types.Func) bool { return !governed[f] }) {
				governed[m], changed = true, true
			}
		}
	}
	return governed
}

// sealedDispatch maps each method of pkg's sealed interfaces — those with
// an unexported method, which only pkg's own types can implement — to its
// implementations among pkg's named types. Methods with no implementation
// are left out: a call through them can never be shown governed.
func sealedDispatch(pkg *types.Package) map[*types.Func][]*types.Func {
	var ifaces []*types.Interface
	var concrete []types.Type
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				if !it.Method(i).Exported() {
					ifaces = append(ifaces, it)
					break
				}
			}
			continue
		}
		concrete = append(concrete, types.NewPointer(tn.Type()))
	}
	out := make(map[*types.Func][]*types.Func)
	for _, it := range ifaces {
		for _, t := range concrete {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if impl, _, _ := types.LookupFieldOrMethod(t, true, pkg, m.Name()); impl != nil {
					out[m] = append(out[m], impl.(*types.Func))
				}
			}
		}
	}
	return out
}

func describeCall(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name + "()"
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			return id.Name + "." + fn.Sel.Name + "()"
		}
		return fn.Sel.Name + "()"
	default:
		return "call"
	}
}
