package analysis

// rsiclose enforces the PR 2 resource contract: every RSI scan, lock grant,
// and opened operator tree is closed/released on every path out of the
// function that acquired it — including early error returns, the classic
// leak shape. It is flow-sensitive within one function, in the spirit of
// the vet lostcancel pass.
//
// An acquisition is either
//
//   - a call whose name starts with Open/Acquire/Sort and whose results
//     include a closable type declared in rss, lock, exec, or xsort
//     (lock.Manager.Acquire* -> *Held, exec.OpenQuery* -> *Cursor,
//     xsort.Sort -> *Result), bound to a local variable; or
//   - a v.Open() call on a local variable of such a closable type (the
//     RSI protocol: the resource is live once Open returns nil).
//
// From the acquisition point the analyzer walks the function's structured
// control flow. A path is satisfied when the value is closed/released or
// escapes the function (returned, stored into a field or another value,
// passed to a call — ownership moved); a deferred close satisfies every
// path, wherever the defer sits (also inside a function literal called
// after the acquisition). A `return` reached with the resource
// still open is reported. The error-check branch of the acquisition itself
// (`if err != nil { return ... }`) is exempt: on that path nothing was
// acquired, per Go convention and per the rss/lock implementations.
//
// Acquisitions inside function literals are checked against the literal's
// own body (each literal is a scope of its own).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// RSIClose is the scan/lock/cursor leak analyzer.
var RSIClose = &Analyzer{
	Name: "rsiclose",
	Doc:  "values from rss scan opens, lock acquires, and operator Opens must be closed/released on every path",
	Run:  runRSIClose,
}

// closablePackages are the path tails whose types the analyzer tracks.
var closablePackages = map[string]bool{"rss": true, "lock": true, "exec": true, "xsort": true}

func runRSIClose(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkScope(pass, pass.Pkg, fd.Body, closeRule)
			}
		}
	}
	return nil
}

// leakRule is one resource discipline checked by the path walker: how an
// acquisition is recognized, how it is released, and how its leaks read.
// rsiclose and snappin's pin-release check differ only here.
type leakRule struct {
	// acquire recognizes an acquisition at n, or returns nil.
	acquire func(info *types.Info, n ast.Node) *acquisition
	// release recognizes a call releasing the value isV matches.
	release func(call *ast.CallExpr, isV func(ast.Expr) bool) bool
	// leaked describes a return path that may leave a (acquired at line)
	// open; never describes an a that no path releases.
	leaked func(a *acquisition, line int) string
	never  func(a *acquisition) string
}

// closeRule is rsiclose's discipline: scans, lock grants, and operator
// trees, released by their own Close/Release.
var closeRule = &leakRule{
	acquire: func(info *types.Info, n ast.Node) *acquisition {
		switch s := n.(type) {
		case *ast.AssignStmt:
			return acquisitionFromAssign(info, s)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				return openAcquisition(info, call, nil)
			}
		}
		return nil
	},
	release: func(call *ast.CallExpr, isV func(ast.Expr) bool) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Close" || sel.Sel.Name == "Release") && isV(sel.X)
	},
	leaked: func(a *acquisition, line int) string {
		return fmt.Sprintf("%s acquired from %s (line %d) may not be %sd on this return path",
			a.name, a.what, line, strings.ToLower(a.closeName))
	},
	never: func(a *acquisition) string {
		return fmt.Sprintf("%s acquired from %s is never %sd", a.name, a.what, strings.ToLower(a.closeName))
	},
}

// reporter is the diagnostic surface shared by Pass and ProgramPass.
type reporter interface {
	Reportf(pos token.Pos, format string, args ...any)
}

// checkScope analyzes one function body of pkg under rule, then recurses
// into the function literals it contains (each one is its own scope).
func checkScope(r reporter, pkg *Package, body *ast.BlockStmt, rule *leakRule) {
	var acqs []*acquisition
	var lits []*ast.FuncLit

	// Collect acquisitions in this scope only — literals are analyzed
	// separately.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		if a := rule.acquire(pkg.Info, n); a != nil {
			acqs = append(acqs, a)
		}
		return true
	})

	for _, a := range acqs {
		checkAcquisition(r, pkg, body, a, rule)
	}
	for _, lit := range lits {
		checkScope(r, pkg, lit.Body, rule)
	}
}

// closableType reports whether t is (a pointer to) a named type from a
// tracked package that has a Close or Release method, returning the method
// name.
func closableType(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	p := n.Obj().Pkg()
	if p == nil || !closablePackages[pathTail(p.Path())] {
		return "", false
	}
	for _, name := range []string{"Close", "Release"} {
		if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, p, name); m != nil {
			if _, isFunc := m.(*types.Func); isFunc {
				return name, true
			}
		}
	}
	return "", false
}

// acquisition is one tracked resource within a function.
type acquisition struct {
	v         *types.Var // the local holding the resource
	name      string     // variable name, for diagnostics
	what      string     // the acquiring call, for diagnostics
	closeName string     // Close or Release
	pos       token.Pos
	after     token.Pos  // tracking starts after this position
	errVar    *types.Var // error bound at the acquisition, if any
}

// acquisitionFromAssign recognizes `v, err := m.AcquireContext(...)`-shaped
// bindings and `err := v.Open()`.
func acquisitionFromAssign(info *types.Info, s *ast.AssignStmt) *acquisition {
	if len(s.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	// `err := v.Open()` form.
	var errVar *types.Var
	if len(s.Lhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if v := localVarOf(info, id); v != nil && isErrorType(v.Type()) {
				errVar = v
			}
		}
	}
	if a := openAcquisition(info, call, errVar); a != nil {
		a.after = s.End()
		return a
	}
	// Acquiring-call form.
	f := calleeFunc(info, call)
	if f == nil || !acquiringName(f.Name()) {
		return nil
	}
	var acq *acquisition
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := localVarOf(info, id)
		if v == nil {
			continue
		}
		if closeName, ok := closableType(v.Type()); ok && acq == nil {
			acq = &acquisition{
				v: v, name: id.Name, what: f.Name(), closeName: closeName,
				pos: s.Pos(), after: s.End(),
			}
		} else if acq != nil && i == len(s.Lhs)-1 && isErrorType(v.Type()) {
			acq.errVar = v
		}
	}
	return acq
}

// openAcquisition recognizes `v.Open()` on a closable local.
func openAcquisition(info *types.Info, call *ast.CallExpr, errVar *types.Var) *acquisition {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Open" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v := localVarOf(info, id)
	if v == nil {
		return nil
	}
	closeName, ok := closableType(v.Type())
	if !ok {
		return nil
	}
	return &acquisition{
		v: v, name: id.Name, what: id.Name + ".Open", closeName: closeName,
		pos: call.Pos(), after: call.End(), errVar: errVar,
	}
}

// acquiringName matches the names under which tracked resources are handed
// out in this codebase.
func acquiringName(name string) bool {
	for _, prefix := range []string{"Open", "Acquire", "TryAcquire", "Sort"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// localVarOf resolves an identifier to the local or parameter variable it
// names (package-level vars and fields are out of scope for the analysis).
func localVarOf(info *types.Info, id *ast.Ident) *types.Var {
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Pkg() == nil {
		return nil
	}
	if v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// checkAcquisition walks the scope and reports returns that leak the
// resource.
func checkAcquisition(r reporter, pkg *Package, body *ast.BlockStmt, a *acquisition, rule *leakRule) {
	w := &leakWalker{info: pkg.Info, a: a, rule: rule}
	end := walkFlow[leakState](w, body, leakReleased)
	if w.safe {
		return
	}
	for _, pos := range w.leaks {
		r.Reportf(pos, "%s", rule.leaked(a, pkg.Fset.Position(a.pos).Line))
	}
	if len(w.leaks) == 0 && end.live && end.s == leakOpen && !w.everClosed {
		r.Reportf(a.pos, "%s", rule.never(a))
	}
}

// leakState is where one path stands with the acquisition; where paths
// join, the lower state holds.
type leakState uint8

const (
	leakOpen     leakState = iota // acquired and not yet released
	leakReleased                  // released, or not yet acquired
	leakFailed                    // on the acquisition's own failure path
)

// leakWalker is the flow transfer for one acquisition.
type leakWalker struct {
	info *types.Info
	a    *acquisition
	rule *leakRule
	// safe short-circuits everything: a deferred close, or an escape.
	safe bool
	// everClosed: a path other than the failure path releases.
	everClosed bool
	leaks      []token.Pos
	// errInvalidated: a.errVar has been rebound since the acquisition, so
	// `if err != nil` no longer identifies the acquisition's failure path.
	errInvalidated bool
}

func (w *leakWalker) copy(s leakState) leakState    { return s }
func (w *leakWalker) meet(a, b leakState) leakState { return min(a, b) }
func (w *leakWalker) equal(a, b leakState) bool     { return a == b }

func (w *leakWalker) node(n ast.Node, s leakState) leakState {
	switch {
	case n.End() <= w.a.pos:
		return s // before the acquisition
	case n.Pos() <= w.a.pos && w.a.after <= n.End():
		w.errInvalidated = false
		return leakOpen // the acquiring statement itself
	}
	switch st := n.(type) {
	case ast.Expr:
		w.checkEscapeExpr(st)
		return s
	case *ast.ExprStmt:
		if w.isCloseCall(st.X) {
			return w.release(s)
		}
	case *ast.AssignStmt:
		if s != leakFailed && slices.ContainsFunc(st.Lhs, w.isErrVar) {
			w.errInvalidated = true
		}
		if slices.ContainsFunc(st.Rhs, w.isCloseCall) {
			return w.release(s)
		}
	}
	w.checkEscape(n.(ast.Stmt))
	return s
}

// release applies a release of the resource to a path in state s. On the
// failure path it records nothing: nothing was acquired there.
func (w *leakWalker) release(s leakState) leakState {
	if s == leakFailed {
		return s
	}
	w.everClosed = true
	return leakReleased
}

func (w *leakWalker) ret(st *ast.ReturnStmt, s leakState) {
	if s != leakOpen || slices.ContainsFunc(st.Results, w.mentionsVar) {
		return
	}
	if !slices.Contains(w.leaks, st.Pos()) { // a loop body may be walked twice
		w.leaks = append(w.leaks, st.Pos())
	}
}

// deferGo marks the walker safe on a deferred close, which covers every
// exit wherever the defer sits, or on a resource handed to a goroutine.
func (w *leakWalker) deferGo(st ast.Stmt, s leakState) leakState {
	var call *ast.CallExpr
	switch st := st.(type) {
	case *ast.DeferStmt:
		call = st.Call
	case *ast.GoStmt:
		call = st.Call
	}
	if w.handsOff(call) {
		w.safe = true
	}
	return s
}

// handsOff reports a deferred or goroutine call that releases the resource
// or takes it.
func (w *leakWalker) handsOff(call *ast.CallExpr) bool {
	return w.mentionsClose(call) || w.callMentionsVar(call)
}

// branch gives the acquisition's own failure branch (`<errVar> != nil`,
// errVar not rebound since) the failed state.
func (w *leakWalker) branch(cond ast.Expr, s leakState) leakState {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ || s != leakOpen || w.errInvalidated {
		return s
	}
	if w.isErrVar(bin.X) || w.isErrVar(bin.Y) {
		return leakFailed
	}
	return s
}

func (w *leakWalker) isVar(e ast.Expr) bool    { return refersTo(w.info, e, w.a.v) }
func (w *leakWalker) isErrVar(e ast.Expr) bool { return refersTo(w.info, e, w.a.errVar) }

// isCloseCall matches the rule's release of the tracked variable.
func (w *leakWalker) isCloseCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && w.rule.release(call, w.isVar)
}

// mentionsClose reports a release of the tracked variable anywhere inside
// n (for defer/go closures).
func (w *leakWalker) mentionsClose(n ast.Node) bool {
	return anyNode(n, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		return ok && w.isCloseCall(e)
	})
}

// mentionsVar reports a use of the tracked variable anywhere inside e.
func (w *leakWalker) mentionsVar(e ast.Expr) bool { return anyNode(e, w.isVarNode) }

func (w *leakWalker) isVarNode(n ast.Node) bool {
	e, ok := n.(ast.Expr)
	return ok && w.isVar(e)
}

// checkEscape marks the walker safe when the statement moves the resource
// out of the function's hands: stored into another value, sent on a
// channel, or passed to a call that is not the resource's own method.
func (w *leakWalker) checkEscape(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && w.isOwnMethodCall(call) {
				continue // driving the resource is not an escape
			}
			if w.mentionsVar(rhs) {
				w.safe = true
			}
		}
	case *ast.ExprStmt:
		w.checkEscapeExpr(st.X)
	case *ast.SendStmt:
		if w.mentionsVar(st.Value) {
			w.safe = true
		}
	case *ast.DeclStmt:
		if anyNode(st, w.isVarNode) {
			w.safe = true
		}
	}
}

// checkEscapeExpr scans an expression for calls that capture the resource,
// and for function literals that defer its release (an immediately
// invoked `func() { defer v.Close(); ... }()`).
func (w *leakWalker) checkEscapeExpr(e ast.Expr) {
	escapes := anyNode(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return !w.isCloseCall(n) && !w.isOwnMethodCall(n) && w.callMentionsVar(n)
		case *ast.DeferStmt:
			return w.handsOff(n.Call)
		}
		return false
	})
	if escapes {
		w.safe = true
	}
}

// isOwnMethodCall matches `v.Method(...)` with no self-reference in the
// arguments.
func (w *leakWalker) isOwnMethodCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !w.isVar(sel.X) {
		return false
	}
	return !slices.ContainsFunc(call.Args, w.mentionsVar)
}

// callMentionsVar reports the tracked variable among the call's arguments,
// or as the receiver of a method value (`defer v.Close`).
func (w *leakWalker) callMentionsVar(call *ast.CallExpr) bool {
	if slices.ContainsFunc(call.Args, w.mentionsVar) {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && w.isVar(sel.X)
}

// refersTo reports whether e is an identifier naming v.
func refersTo(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && v != nil && info.ObjectOf(id) == types.Object(v)
}

// anyNode reports whether pred holds for some node in n.
func anyNode(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		found = found || n != nil && pred(n)
		return !found
	})
	return found
}
