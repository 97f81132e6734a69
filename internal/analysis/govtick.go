package analysis

// govtick enforces the PR 1 invariant that no tuple- or page-producing loop
// runs ungoverned: inside internal/exec, internal/rss, and internal/xsort,
// every loop whose body produces tuples or pages must reach a statement-
// governor checkpoint, so a canceled or over-budget statement aborts even
// when the work happens below the operator boundary (spill loops, page
// walks, run merges).
//
// A loop is governed when its body either calls a *governor.Budget method
// directly, or calls only producers that are themselves governed — the
// governed property is computed per function (to a fixpoint, so helpers
// that delegate to governed functions inherit it) and shared across
// packages through the fact store: exec loops driving rss scan Next calls
// pass because rss's Next methods check the budget internally.
//
// Producers are: methods named Next/next/NextInto returning (..., bool, error);
// storage.BufferPool.Fetch; storage.Segment.Insert; and calls of
// function-typed values with a (..., bool, error) result shape (e.g. a
// sorter input). Calls of function values can never be proven governed, so
// loops driving them need their own checkpoint. A call through an interface
// that has an unexported method can only dispatch to the declaring
// package's own types, so it is governed once every one of them is — the
// executor's shared batch fill drives its row sources that way.
//
// The same packages implement the batched operator protocol, whose boundary
// ticks once per batch instead of once per row. That is only safe if every
// NextBatch body still reaches a checkpoint at least once per batch —
// directly, or by driving a governed producer — so a canceled or
// over-budget statement cannot run a whole batch (or, with interior loops,
// arbitrarily long) per boundary tick. (That a NextBatch body never reads
// the pool's DB-global IOStats for its fetch delta is the layering
// analyzer's stmtio rule, which covers the same packages.)

import (
	"go/ast"
	"go/types"
)

// GovTick is the governor-checkpoint analyzer.
var GovTick = &Analyzer{
	Name: "govtick",
	Doc:  "tuple/page-producing loops and NextBatch bodies in exec, rss, and xsort must reach a governor budget check",
	Run:  runGovTick,
}

// govtickPackages are the path tails the loop rule applies to. Fact
// computation runs everywhere so governed helpers in other packages (e.g.
// storage) are visible.
var govtickPackages = map[string]bool{"exec": true, "rss": true, "xsort": true}

// governedFact marks a function whose body (transitively) reaches a
// statement-governor checkpoint. Exported per function object by
// computeGovernedFacts; any analyzer that needs the property computes it
// into its own namespace (fact namespaces are per-analyzer so the suite can
// run in parallel).
type governedFact struct{}

func (*governedFact) AFact() {}

// isGoverned reports whether fn carries a governed fact in this analyzer's
// namespace.
func isGoverned(facts factReader, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	return facts.ImportObjectFact(fn, &governedFact{})
}

// factReader is the read surface shared by Pass and ProgramPass.
type factReader interface {
	ImportObjectFact(obj types.Object, f Fact) bool
}

func runGovTick(pass *Pass) error {
	computeGovernedFacts(pass)
	if !govtickPackages[pathTail(pass.Pkg.Path)] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			checkGovLoop(pass, info, n, body)
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil &&
				(fd.Name.Name == "NextBatch" || fd.Name.Name == "nextBatch") {
				checkBatchBody(pass, info, fd)
			}
		}
	}
	return nil
}

// checkBatchBody applies the batched-protocol rule to one NextBatch body.
func checkBatchBody(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	if !containsBudgetCall(info, fd.Body) && !callsGovernedFunc(pass, info, fd.Body) {
		pass.Reportf(fd.Pos(),
			"%s fills a batch without a governor checkpoint: tick the budget or drive a governed producer at least once per batch", fd.Name.Name)
	}
}

func checkGovLoop(pass *Pass, info *types.Info, loop ast.Node, body *ast.BlockStmt) {
	if containsBudgetCall(info, body) {
		return
	}
	var offending ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if offending != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, governed := classifyProducer(pass, info, call)
		if kind != "" && !governed {
			offending = call
		}
		return true
	})
	if offending != nil {
		pass.Reportf(loop.Pos(),
			"loop produces tuples/pages (%s) without a governor budget check; add a Budget.Tick/Check or call only governed producers",
			describeCall(offending.(*ast.CallExpr)))
	}
}

// classifyProducer reports whether call produces tuples or pages, and if
// so whether the callee is known to contain its own governor checkpoint.
func classifyProducer(facts factReader, info *types.Info, call *ast.CallExpr) (kind string, governed bool) {
	if f := calleeFunc(info, call); f != nil {
		if (f.Name() == "Next" || f.Name() == "next" || f.Name() == "NextInto") && producerShape(f.Type().(*types.Signature)) {
			return "Next", isGoverned(facts, f)
		}
		if isMethodOn(f, "Fetch", "storage", "BufferPool") {
			return "page fetch", isGoverned(facts, f)
		}
		if isMethodOn(f, "Insert", "storage", "Segment") {
			return "page insert", isGoverned(facts, f)
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
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeFunc(info, call); f != nil {
			if nm := recvNamed(f); nm != nil && nm.Obj().Name() == "Budget" {
				if p := nm.Obj().Pkg(); p != nil && pathTail(p.Path()) == "governor" {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// computeGovernedFacts marks this package's functions that (transitively)
// reach a governor checkpoint, exporting a governedFact per function into
// the calling analyzer's namespace. Packages are analyzed in dependency
// order, so facts about imported packages are already present.
func computeGovernedFacts(pass *Pass) {
	info := pass.Pkg.Info
	type fn struct {
		obj  *types.Func
		body *ast.BlockStmt
	}
	var fns []fn
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, fn{obj: obj, body: fd.Body})
		}
	}
	sealed := sealedDispatch(pass.Pkg.Types)
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if isGoverned(pass, f.obj) {
				continue
			}
			if containsBudgetCall(info, f.body) || callsGovernedFunc(pass, info, f.body) {
				pass.ExportObjectFact(f.obj, &governedFact{})
				changed = true
			}
		}
		for m, impls := range sealed {
			if isGoverned(pass, m) {
				continue
			}
			all := true
			for _, impl := range impls {
				all = all && isGoverned(pass, impl)
			}
			if all {
				pass.ExportObjectFact(m, &governedFact{})
				changed = true
			}
		}
	}
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

func callsGovernedFunc(facts factReader, info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if f := calleeFunc(info, call); f != nil && isGoverned(facts, f) {
				found = true
				return false
			}
		}
		return true
	})
	return found
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
