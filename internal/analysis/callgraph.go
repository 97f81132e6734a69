package analysis

// Whole-program call graph over one Load. Nodes are the module's declared
// functions and methods (the ones whose bodies we can see); edges come from
//
//   - static calls: `pkg.F(...)`, `recv.M(...)` on a concrete receiver;
//   - interface dispatch, resolved by class-hierarchy analysis: a call
//     through interface method I.M gets an edge to T.M for every named type
//     T in the program that implements I. CHA over-approximates (it assumes
//     any implementation may be the callee), which is the right polarity for
//     the invariant checks built on the graph: "reachable" findings may need
//     a reasoned ignore, but a true chain is never missed because it was
//     dispatched through an Operator or FaultInjector interface;
//   - go/defer statements, treated like ordinary calls.
//
// Calls inside function literals are attributed to the enclosing declared
// function: a chain through a closure (worker bodies, defer blocks) stays
// connected. Calls of plain function-typed values remain unresolved — the
// analyzers that consume the graph document that blind spot and require
// local evidence (a local tick, a local pin) around dynamic calls instead.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is the program's call graph.
type CallGraph struct {
	// Nodes maps each declared function/method object to its node. Only
	// functions declared in the loaded packages appear (imported standard-
	// library functions have no bodies to analyze).
	Nodes map[*types.Func]*CallNode
	// Dispatch maps each interface method called in the program to the
	// implementations a call of it may reach (the CHA edges above).
	Dispatch map[*types.Func][]*CallNode
}

// CallNode is one declared function with its in- and out-edges.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out and In hold the outgoing and incoming edges.
	Out []*CallEdge
	In  []*CallEdge
}

// CallEdge is one caller→callee relationship.
type CallEdge struct {
	Caller, Callee *CallNode
}

// Roots returns the nodes with no callers in the graph — the program's
// entry surface (exported API, main functions) plus any dead code — sorted
// by position for deterministic reports.
func (g *CallGraph) Roots() []*CallNode {
	var roots []*CallNode
	for _, n := range g.Nodes {
		if len(n.In) == 0 {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Fn.Pos() < roots[j].Fn.Pos() })
	return roots
}

// buildCallGraph constructs the graph for the loaded packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CallNode), Dispatch: make(map[*types.Func][]*CallNode)}

	// Pass 1: one node per declared function; collect the program's named
	// types for interface resolution.
	var concrete []types.Type
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && d.Body != nil {
						g.Nodes[fn] = &CallNode{Fn: fn, Decl: d, Pkg: pkg}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
						if !ok || obj.IsAlias() {
							continue
						}
						named, ok := obj.Type().(*types.Named)
						if !ok || types.IsInterface(named) {
							continue
						}
						concrete = append(concrete, named)
					}
				}
			}
		}
	}

	// Pass 2: edges. Each declared function's body (closures included) is
	// scanned for calls; interface-method callees fan out over the
	// implementing concrete types.
	seen := make(map[[2]*CallNode]bool)
	addEdge := func(from *CallNode, to *types.Func) {
		callee, ok := g.Nodes[to]
		if !ok {
			return // no body in this load (stdlib or external)
		}
		if seen[[2]*CallNode{from, callee}] {
			return
		}
		seen[[2]*CallNode{from, callee}] = true
		e := &CallEdge{Caller: from, Callee: callee}
		from.Out = append(from.Out, e)
		callee.In = append(callee.In, e)
	}

	for _, n := range g.Nodes {
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(info, call)
			if f == nil {
				return true
			}
			sig, ok := f.Type().(*types.Signature)
			if !ok {
				return true
			}
			recv := sig.Recv()
			if recv == nil || !types.IsInterface(recv.Type()) {
				addEdge(n, f)
				return true
			}
			// Interface dispatch: resolve to every implementing type's
			// method of the same name.
			iface, ok := recv.Type().Underlying().(*types.Interface)
			if !ok {
				return true
			}
			if targets, done := g.Dispatch[f]; done {
				for _, c := range targets {
					addEdge(n, c.Fn)
				}
				return true
			}
			g.Dispatch[f] = []*CallNode{}
			for _, t := range concrete {
				impl := t
				if !types.Implements(impl, iface) {
					impl = types.NewPointer(t)
					if !types.Implements(impl, iface) {
						continue
					}
				}
				m, _, _ := types.LookupFieldOrMethod(impl, true, f.Pkg(), f.Name())
				if mf, ok := m.(*types.Func); ok {
					if c, ok := g.Nodes[mf]; ok {
						g.Dispatch[f] = append(g.Dispatch[f], c)
					}
					addEdge(n, mf)
				}
			}
			return true
		})
	}

	// Deterministic edge order (map iteration built the lists).
	for _, n := range g.Nodes {
		sort.Slice(n.Out, func(i, j int) bool { return n.Out[i].Callee.Fn.Pos() < n.Out[j].Callee.Fn.Pos() })
		sort.Slice(n.In, func(i, j int) bool { return n.In[i].Caller.Fn.Pos() < n.In[j].Caller.Fn.Pos() })
	}
	return g
}

// FuncOf returns the graph node for fn, or nil.
func (g *CallGraph) FuncOf(fn *types.Func) *CallNode { return g.Nodes[fn] }

// SortedNodes returns every node ordered by source position, for
// deterministic iteration.
func (g *CallGraph) SortedNodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fn.Pos() < out[j].Fn.Pos() })
	return out
}

// Reached is the result of a Reach walk: every node it reached, mapped to
// the node it was first reached from (nil for a root).
type Reached map[*CallNode]*CallNode

// Reach walks breadth-first from the graph's roots without crossing a
// frontier: blocked(caller, callee) refuses the step into callee, and
// blocked(nil, root) refuses a root. The interprocedural checks ask "what
// runs with no X anywhere on the stack?" — the frontier is where X happens
// (a governor tick, a snapshot pin), and everything reached lacks it.
func (g *CallGraph) Reach(blocked func(caller, callee *CallNode) bool) Reached {
	reached := make(Reached)
	var queue []*CallNode
	for _, r := range g.Roots() {
		if !blocked(nil, r) {
			reached[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if _, seen := reached[c]; seen || blocked(n, c) {
				continue
			}
			reached[c] = n
			queue = append(queue, c)
		}
	}
	return reached
}

// Chain renders the path root → … → n by which the walk reached n,
// truncated after seven names.
func (r Reached) Chain(n *CallNode) string {
	var names []string
	for at := n; at != nil; at = r[at] {
		names = append(names, funcDisplayName(at.Fn))
		if len(names) > 6 {
			names = append(names, "…")
			break
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
