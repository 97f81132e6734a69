package analysis

// snappin enforces the PR 8 snapshot discipline interprocedurally. MVCC
// reads are only meaningful under a pinned snapshot: the reader's
// registration (txn.Registry.Begin) is what holds the vacuum horizon back,
// so a version the snapshot can see is never reclaimed mid-scan. A call
// chain that reaches the visibility boundary — Page.ReadVersioned or
// Snapshot.Visible — from an entry point that never captured a registration
// reads versions that vacuum is free to drop, or reads under a stale
// snapshot captured by nobody; and a captured pin that is not released on
// some return path stalls the vacuum horizon forever (the slow leak that
// turns into unbounded version chains).
//
// Two checks, both over the whole-program call graph:
//
//  1. Origin: walking from every entry point (a function with no in-module
//     callers) that does not itself pin, without descending into pinning
//     functions (everything below a pin is covered by it), no path may
//     reach a direct call of ReadVersioned/Visible. CHA-resolved interface
//     edges keep chains through the Operator tree connected. "Pinning" is
//     either calling Registry.Begin, or being a method on a pin carrier (a
//     type holding a *txn.Reg — systemr.Rows, txn.Txn: the method runs
//     between Begin and Finish by construction). Two boundary rules keep
//     the walk honest about what it cannot see: a root whose signature
//     receives a snapshot-carrying type answers to callers outside the
//     program (the signature moves the obligation to them), and an edge
//     into a snapshot-receiving callee is covered when the caller derives
//     the snapshot it passes from a pin it holds (cur.Snapshot(),
//     reg.Snap) — but not when it conjures a nil-snapshot runtime.
//  2. Release: inside a pinning function, a registration bound to a local
//     (`reg := r.Begin()`) must be Finished on every return path — a
//     deferred Finish, an explicit Finish before each return, or escape
//     (returned or stored: ownership moved, e.g. DB.Begin handing the
//     registration to the session's Txn).
//
// Sanctioned nil-snapshot readers (catalog statistics under the exclusive
// catalog lock, vacuum itself reading under the horizon) carry reasoned
// //sysrcheck:ignore directives at the reporting site — the point of the
// analyzer is that each such exemption is written down next to the code
// that depends on it.

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// SnapPin is the snapshot-pinning analyzer.
var SnapPin = &Analyzer{
	Name:       "snappin",
	Doc:        "call chains reaching ReadVersioned/Snapshot.Visible must originate from a pinned snapshot (Registry.Begin), released on every return path",
	RunProgram: runSnapPin,
}

func isSnapSink(fn *types.Func) bool {
	return isMethodOn(fn, "ReadVersioned", "storage", "Page") ||
		isMethodOn(fn, "ReadVersionedInto", "storage", "Page") ||
		isMethodOn(fn, "Visible", "storage", "Snapshot")
}

func isPinCall(info *types.Info, call *ast.CallExpr) bool {
	return isMethodOn(calleeFunc(info, call), "Begin", "txn", "Registry")
}

func runSnapPin(pass *ProgramPass) error {
	g := pass.Prog.CallGraph
	nodes := g.SortedNodes()

	// Which functions pin? Either the body calls Registry.Begin, or the
	// receiver is a pin carrier: a type that holds a *txn.Reg (directly or
	// through its fields — systemr.Rows holds the registration for the
	// cursor's lifetime; txn.Txn holds it for the transaction's). A method
	// on a carrier runs between Begin and Finish by construction, so chains
	// below it are covered by that pin.
	pins := make(map[*CallNode]bool, len(nodes))
	for _, n := range nodes {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil && carriesReg(recv.Type(), nil) {
			pins[n] = true
			continue
		}
		pins[n] = anyNode(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			return ok && isPinCall(n.Pkg.Info, call)
		})
	}

	// Check 1: unpinned reachability. Walk from every non-pinning root; a
	// pinning function is a frontier we do not cross. A root whose signature
	// *receives* a snapshot (a parameter or receiver carrying
	// storage.Snapshot, e.g. exec.OpenQuery's *Runtime) is a contract
	// boundary: its callers are outside the program we can see, and the
	// signature moves the pin obligation to them — internal callers of the
	// same function are still walked through it. An edge into such a
	// function is covered when the caller derives the snapshot it passes
	// from a pin it holds (cur.Snapshot() on a transaction, reg.Snap on a
	// registration): the pin is alive for the call's duration. Callers that
	// conjure a runtime with no snapshot (db.runtime(nil, nil)) derive
	// nothing and are still walked through.
	derives := make(map[*CallNode]bool)
	derivesSnap := func(n *CallNode) bool {
		if d, ok := derives[n]; ok {
			return d
		}
		d := derivesSnapFromPin(n)
		derives[n] = d
		return d
	}
	unpinned := g.Reach(func(caller, callee *CallNode) bool {
		return pins[callee] || receivesSnapshot(callee.Fn) && (caller == nil || derivesSnap(caller))
	})
	for _, n := range nodes {
		if _, ok := unpinned[n]; !ok {
			continue
		}
		for _, e := range n.Out {
			if !isSnapSink(e.Callee.Fn) {
				continue
			}
			pass.Reportf(e.Site.Pos(),
				"%s reaches %s without a pinned snapshot: no Registry.Begin on the chain %s — vacuum may reclaim versions mid-read",
				funcDisplayName(n.Fn), funcDisplayName(e.Callee.Fn), unpinned.Chain(n))
		}
	}

	// Check 2: every pin bound to a local is released on all return paths.
	for _, n := range nodes {
		if pins[n] {
			checkScope(pass, n.Pkg, n.Decl.Body, pinRule)
		}
	}
	return nil
}

// pinRule is the release discipline for `reg := x.Begin()` bindings, run
// through rsiclose's path walker; the release is by argument,
// `x.Finish(reg)`.
var pinRule = &leakRule{
	acquire: func(info *types.Info, n ast.Node) *acquisition {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return nil
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isPinCall(info, call) {
			return nil
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		v := localVarOf(info, id)
		if v == nil {
			return nil
		}
		return &acquisition{
			v: v, name: id.Name, what: "Registry.Begin", pos: as.Pos(), after: as.End(),
		}
	},
	release: func(call *ast.CallExpr, isV func(ast.Expr) bool) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Finish" && slices.ContainsFunc(call.Args, isV)
	},
	leaked: func(a *acquisition, line int) string {
		return fmt.Sprintf("snapshot pin %s from Registry.Begin (line %d) may not be released on this return path: call Finish or defer it",
			a.name, line)
	},
	never: func(a *acquisition) string {
		return fmt.Sprintf("snapshot pin %s from Registry.Begin is never released: an unreleased pin stalls the vacuum horizon", a.name)
	},
}

// isNamedIn matches a named type (possibly behind a pointer) by name and
// package path tail.
func isNamedIn(t types.Type, name, pkgTail string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == name && o.Pkg() != nil && pathTail(o.Pkg().Path()) == pkgTail
}

// carriesType reports whether t transitively satisfies match through struct
// fields (pointers, slices, arrays, and map values included). Traversal
// stops at txn.Registry: the registry owns *every* registration and every
// snapshot, which says nothing about the holder having pinned one of its
// own.
func carriesType(t types.Type, match func(types.Type) bool, seen map[types.Type]bool) bool {
	if match(t) {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if isNamedIn(t, "Registry", "txn") {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesType(u.Field(i).Type(), match, seen) {
				return true
			}
		}
	case *types.Slice:
		return carriesType(u.Elem(), match, seen)
	case *types.Array:
		return carriesType(u.Elem(), match, seen)
	case *types.Map:
		return carriesType(u.Elem(), match, seen)
	}
	return false
}

// carriesReg reports whether t transitively holds a txn.Reg — the holder is
// a pin carrier for its lifetime.
func carriesReg(t types.Type, seen map[types.Type]bool) bool {
	return carriesType(t, func(t types.Type) bool { return isNamedIn(t, "Reg", "txn") }, seen)
}

// derivesSnapFromPin reports whether n's body obtains a snapshot from a pin
// it holds: a Snapshot() call on a Reg-carrying value (txn.Txn) or a .Snap
// read on a txn.Reg.
func derivesSnapFromPin(n *CallNode) bool {
	info := n.Pkg.Info
	return anyNode(n.Decl.Body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Snapshot" {
				tv, ok := info.Types[sel.X]
				return ok && tv.Type != nil && carriesReg(tv.Type, nil)
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Snap" {
				tv, ok := info.Types[x.X]
				return ok && tv.Type != nil && isNamedIn(tv.Type, "Reg", "txn")
			}
		}
		return false
	})
}

// receivesSnapshot reports whether fn's receiver or any parameter carries a
// storage.Snapshot: the caller supplies the snapshot, and with it the pin.
func receivesSnapshot(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	isSnap := func(t types.Type) bool { return isNamedIn(t, "Snapshot", "storage") }
	if r := sig.Recv(); r != nil && carriesType(r.Type(), isSnap, nil) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if carriesType(sig.Params().At(i).Type(), isSnap, nil) {
			return true
		}
	}
	return false
}
