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
// passed to a call — ownership moved); a deferred close anywhere in the
// function satisfies every path. A `return` reached with the resource
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
// acquisition is recognized, and how its leaks read. rsiclose and snappin's
// pin-release check differ only here.
type leakRule struct {
	// acquire recognizes an acquisition at n, or returns nil.
	acquire func(info *types.Info, n ast.Node) *acquisition
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
	leaked: func(a *acquisition, line int) string {
		return fmt.Sprintf("%s acquired from %s (line %d) may not be %sd on this return path",
			a.name, a.what, line, lowerClose(a.closeName))
	},
	never: func(a *acquisition) string {
		return fmt.Sprintf("%s acquired from %s is never %sd", a.name, a.what, lowerClose(a.closeName))
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
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lits = append(lits, lit)
				return false
			}
			if a := rule.acquire(pkg.Info, n); a != nil {
				acqs = append(acqs, a)
			}
			return true
		})
	}

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
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Pkg() == nil {
		return nil
	}
	if v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// checkAcquisition walks the scope after the acquisition and reports
// returns that leak the resource.
func checkAcquisition(r reporter, pkg *Package, body *ast.BlockStmt, a *acquisition, rule *leakRule) {
	w := &leakWalker{info: pkg.Info, a: a}
	// A deferred close anywhere in the scope covers every exit, no matter
	// where the defer sits relative to the acquisition (e.g. a close
	// deferred before a later Open — the blockCtx.run pattern).
	for _, s := range body.List {
		ast.Inspect(s, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				if w.mentionsClose(d.Call) || w.callMentionsVar(d.Call) {
					w.safe = true
				}
			}
			return !w.safe
		})
		if w.safe {
			return
		}
	}
	closedAtEnd := w.walkStmts(body.List, false)
	if w.safe {
		return
	}
	for _, pos := range w.leaks {
		r.Reportf(pos, "%s", rule.leaked(a, pkg.Fset.Position(a.pos).Line))
	}
	if len(w.leaks) == 0 && !closedAtEnd && !w.everClosed {
		r.Reportf(a.pos, "%s", rule.never(a))
	}
}

func lowerClose(name string) string {
	if name == "Release" {
		return "release"
	}
	return "close"
}

// leakWalker interprets structured control flow, tracking whether the
// resource has been closed on the current path. Vacuous truth keeps the
// merge rules simple: a branch that returns reports its own leaks and
// contributes "closed" to the merge, because no flow continues out of it.
type leakWalker struct {
	info    *types.Info
	a       *acquisition
	started bool
	// safe short-circuits everything: deferred close or escape.
	safe       bool
	everClosed bool
	leaks      []token.Pos
	// errInvalidated: a.errVar has been rebound since the acquisition, so
	// `if err != nil` no longer identifies the acquisition's failure path.
	errInvalidated bool
}

// walkStmts walks a statement list with the given closed state and returns
// the state after the list.
func (w *leakWalker) walkStmts(stmts []ast.Stmt, closed bool) bool {
	for _, s := range stmts {
		closed = w.walkStmt(s, closed)
		if w.safe {
			return true
		}
	}
	return closed
}

func (w *leakWalker) walkStmt(s ast.Stmt, closed bool) bool {
	if !w.started {
		if s.End() <= w.a.pos {
			return closed // entirely before the acquisition
		}
		w.started = true
		if s.End() <= w.a.after {
			return closed // this is the acquiring statement itself
		}
		// The acquisition is nested inside s (if-init form): analyze s.
	} else if s.End() <= w.a.pos {
		return closed
	}

	switch st := s.(type) {
	case *ast.ReturnStmt:
		if w.returnsResource(st) {
			return true // ownership transferred on this path
		}
		if !closed {
			w.leaks = append(w.leaks, st.Pos())
		}
		return true // path ends; vacuous for the merge

	case *ast.DeferStmt:
		if w.mentionsClose(st.Call) || w.callMentionsVar(st.Call) {
			w.safe = true
		}
		return closed

	case *ast.ExprStmt:
		if w.isCloseCall(st.X) {
			w.everClosed = true
			return true
		}
		w.checkEscape(s)
		return closed

	case *ast.AssignStmt:
		if st.End() > w.a.after {
			w.noteErrReassign(st)
		}
		for _, rhs := range st.Rhs {
			if w.isCloseCall(rhs) {
				w.everClosed = true
				return true
			}
		}
		w.checkEscape(s)
		return closed

	case *ast.IfStmt:
		if st.Init != nil {
			closed = w.walkStmt(st.Init, closed)
		}
		w.checkEscapeExpr(st.Cond)
		var thenClosed bool
		if w.isAcquisitionErrGuard(st.Cond) {
			// The acquisition's own failure branch: nothing was acquired
			// there, so its returns are exempt; still honor escapes.
			sub := *w
			sub.walkStmts(st.Body.List, true)
			if sub.safe {
				w.safe = true
			}
			thenClosed = true
		} else {
			thenClosed = w.walkStmts(st.Body.List, closed)
		}
		elseClosed := closed
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseClosed = w.walkStmts(e.List, closed)
		case *ast.IfStmt:
			elseClosed = w.walkStmt(e, closed)
		case nil:
			return closed // flow may skip the branch entirely
		}
		return thenClosed && elseClosed

	case *ast.BlockStmt:
		return w.walkStmts(st.List, closed)

	case *ast.ForStmt:
		if st.Init != nil {
			closed = w.walkStmt(st.Init, closed)
		}
		w.walkStmts(st.Body.List, closed)
		return closed // the loop may run zero times

	case *ast.RangeStmt:
		w.checkEscapeExpr(st.X)
		w.walkStmts(st.Body.List, closed)
		return closed

	case *ast.SwitchStmt:
		if st.Init != nil {
			closed = w.walkStmt(st.Init, closed)
		}
		w.checkEscapeExpr(st.Tag)
		return w.walkCases(st.Body, closed)

	case *ast.TypeSwitchStmt:
		return w.walkCases(st.Body, closed)

	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			w.walkStmts(c.(*ast.CommClause).Body, closed)
		}
		return closed

	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, closed)

	case *ast.GoStmt:
		if w.mentionsClose(st.Call) || w.callMentionsVar(st.Call) {
			w.safe = true // ownership handed to the goroutine
		}
		return closed

	default:
		w.checkEscape(s)
		return closed
	}
}

// walkCases merges switch cases: every path out of the switch is closed
// when each case body ends closed (vacuously for returning cases) and a
// default exists (otherwise flow can bypass all cases).
func (w *leakWalker) walkCases(body *ast.BlockStmt, closed bool) bool {
	all := true
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		if !w.walkStmts(cc.Body, closed) {
			all = false
		}
	}
	if closed {
		return true
	}
	return all && hasDefault && len(body.List) > 0
}

// isCloseCall matches `v.Close()` / `v.Release()` on the tracked variable.
func (w *leakWalker) isCloseCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if w.a.closeName == "Finish" {
		// Release-by-argument form (snappin): x.Finish(v) releases v.
		if sel.Sel.Name != "Finish" {
			return false
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.isTracked(id) {
				return true
			}
		}
		return false
	}
	if sel.Sel.Name != "Close" && sel.Sel.Name != "Release" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && w.isTracked(id)
}

// mentionsClose reports a Close/Release of the tracked variable anywhere
// inside n (for defer/go closures).
func (w *leakWalker) mentionsClose(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && w.isCloseCall(call) {
			found = true
		}
		return !found
	})
	return found
}

func (w *leakWalker) isTracked(id *ast.Ident) bool {
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
	}
	return obj != nil && obj == types.Object(w.a.v)
}

// returnsResource reports whether the return hands the resource out.
func (w *leakWalker) returnsResource(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if w.exprMentionsVar(r) {
			return true
		}
	}
	return false
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
			if w.exprMentionsVar(rhs) {
				w.safe = true
			}
		}
	case *ast.ExprStmt:
		w.checkEscapeExpr(st.X)
	case *ast.SendStmt:
		if w.exprMentionsVar(st.Value) {
			w.safe = true
		}
	case *ast.DeclStmt:
		if w.exprMentionsDecl(st) {
			w.safe = true
		}
	}
}

// checkEscapeExpr scans an expression for calls that capture the resource.
func (w *leakWalker) checkEscapeExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if !w.isCloseCall(call) && !w.isOwnMethodCall(call) && w.callMentionsVar(call) {
				w.safe = true
			}
		}
		return !w.safe
	})
}

func (w *leakWalker) exprMentionsDecl(st *ast.DeclStmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.isTracked(id) {
			found = true
		}
		return !found
	})
	return found
}

// isOwnMethodCall matches `v.Method(...)` with no self-reference in the
// arguments.
func (w *leakWalker) isOwnMethodCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || !w.isTracked(id) {
		return false
	}
	for _, arg := range call.Args {
		if w.exprMentionsVar(arg) {
			return false
		}
	}
	return true
}

func (w *leakWalker) callMentionsVar(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if w.exprMentionsVar(arg) {
			return true
		}
	}
	// Method value on the resource (e.g. `defer v.Close`).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && w.isTracked(id) {
			return true
		}
	}
	return false
}

func (w *leakWalker) exprMentionsVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.isTracked(id) {
			found = true
		}
		return !found
	})
	return found
}

// isAcquisitionErrGuard matches `<errVar> != nil` where errVar is the error
// bound at the acquisition and has not been reassigned since.
func (w *leakWalker) isAcquisitionErrGuard(cond ast.Expr) bool {
	if w.a.errVar == nil || w.errInvalidated {
		return false
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	id, ok := ast.Unparen(bin.X).(*ast.Ident)
	if !ok {
		if id, ok = ast.Unparen(bin.Y).(*ast.Ident); !ok {
			return false
		}
	}
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
	}
	return obj != nil && obj == types.Object(w.a.errVar)
}

// noteErrReassign invalidates the acquisition error guard once the error
// variable is rebound by a later statement.
func (w *leakWalker) noteErrReassign(st *ast.AssignStmt) {
	if w.a.errVar == nil || w.errInvalidated {
		return
	}
	for _, lhs := range st.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			obj := w.info.Uses[id]
			if obj == nil {
				obj = w.info.Defs[id]
			}
			if obj != nil && obj == types.Object(w.a.errVar) {
				w.errInvalidated = true
			}
		}
	}
}
