package analysis

// The structured control-flow walker behind lockrank's path-sensitive
// check. It interprets one function body statement by statement, carrying
// a state along every path; a transfer says what the simple statements do
// to the state and how the states of joining paths meet. The per-construct
// rules:
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

import (
	"go/ast"
	"go/token"
)

// transfer is one analysis over states of type S. node may update the
// state in place; the walker copies it wherever paths split.
type transfer[S any] interface {
	copy(S) S
	// meet returns the state where two paths join; it updates neither.
	meet(S, S) S
	equal(S, S) bool
	// node applies a simple statement, or an expression a construct
	// evaluates (condition, tag, range operand, case list).
	node(ast.Node, S) S
	// ret applies a return statement; its path ends there.
	ret(*ast.ReturnStmt, S)
	// deferGo applies a defer or go statement.
	deferGo(ast.Stmt, S) S
}

// path is the state at one point of the walk; a dead path (after a return,
// break, continue or goto) carries none.
type path[S any] struct {
	s    S
	live bool
}

// flowTarget is a construct a break can leave, with the meet of the paths
// that leave it; a loop also collects the paths that continue it.
type flowTarget[S any] struct {
	label string
	loop  bool
	out   path[S]
	cont  path[S]
}

type flowWalker[S any] struct {
	t       transfer[S]
	targets []*flowTarget[S]
	label   string  // label of the statement being entered
	fall    path[S] // state carried by a fallthrough
}

// walkFlow walks body from entry and returns the state where it falls off
// the end.
func walkFlow[S any](t transfer[S], body *ast.BlockStmt, entry S) path[S] {
	w := &flowWalker[S]{t: t}
	return w.stmts(body.List, entry)
}

func (w *flowWalker[S]) join(acc *path[S], p path[S]) {
	switch {
	case !p.live:
	case !acc.live:
		*acc = p
	default:
		acc.s = w.t.meet(acc.s, p.s)
	}
}

func (w *flowWalker[S]) stmts(list []ast.Stmt, s S) path[S] {
	for _, st := range list {
		p := w.stmt(st, s)
		if !p.live {
			return p
		}
		s = p.s
	}
	return path[S]{s, true}
}

func (w *flowWalker[S]) stmt(st ast.Stmt, s S) path[S] {
	label := w.label
	w.label = ""
	t := w.t
	switch st := st.(type) {
	case *ast.BlockStmt:
		return w.stmts(st.List, s)
	case *ast.LabeledStmt:
		w.label = st.Label.Name
		return w.stmt(st.Stmt, s)
	case *ast.ReturnStmt:
		t.ret(st, s)
		return path[S]{}
	case *ast.DeferStmt, *ast.GoStmt:
		return path[S]{t.deferGo(st, s), true}
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			w.join(&w.target(st).out, path[S]{s, true})
		case token.CONTINUE:
			w.join(&w.target(st).cont, path[S]{s, true})
		case token.FALLTHROUGH:
			w.fall = path[S]{s, true}
		}
		return path[S]{}
	case *ast.IfStmt:
		if st.Init != nil {
			s = t.node(st.Init, s)
		}
		s = t.node(st.Cond, s)
		out := w.stmts(st.Body.List, t.copy(s))
		els := path[S]{s, true}
		if st.Else != nil {
			els = w.stmt(st.Else, s)
		}
		w.join(&out, els)
		return out
	case *ast.ForStmt:
		if st.Init != nil {
			s = t.node(st.Init, s)
		}
		if st.Cond != nil {
			s = t.node(st.Cond, s)
		}
		return w.loop(label, st.Body, st.Post, s, st.Cond != nil)
	case *ast.RangeStmt:
		return w.loop(label, st.Body, nil, t.node(st.X, s), true)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s = t.node(st.Init, s)
		}
		if st.Tag != nil {
			s = t.node(st.Tag, s)
		}
		return w.clauses(st.Body, label, s, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s = t.node(st.Init, s)
		}
		return w.clauses(st.Body, label, t.node(st.Assign, s), true)
	case *ast.SelectStmt:
		return w.clauses(st.Body, label, s, false)
	default:
		return path[S]{t.node(st, s), true}
	}
}

// clauses walks the clauses of a switch or select: each clause's header
// (case list or communication) is applied to the entry state, and its body
// walked from a copy. bypass says whether flow may skip every clause, as in
// a switch with no default.
func (w *flowWalker[S]) clauses(body *ast.BlockStmt, label string, s S, bypass bool) path[S] {
	tg := w.push(label, false)
	defer w.pop()
	var fall path[S]
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				s = w.t.node(e, s)
			}
			bypass = bypass && c.List != nil
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				s = w.t.node(c.Comm, s)
			}
			stmts = c.Body
		}
		in := path[S]{w.t.copy(s), true}
		w.join(&in, fall)
		w.fall = path[S]{}
		w.join(&tg.out, w.stmts(stmts, in.s))
		fall = w.fall
	}
	if bypass {
		w.join(&tg.out, path[S]{s, true})
	}
	return tg.out
}

// loop walks a for or range body from head, the entry state, until the
// head is stable, and returns the state on leaving the loop. exits says
// whether flow may leave from the head (a condition or a range).
func (w *flowWalker[S]) loop(label string, body *ast.BlockStmt, post ast.Stmt, head S, exits bool) path[S] {
	tg := w.push(label, true)
	defer w.pop()
	for {
		tg.cont = path[S]{}
		back := w.stmts(body.List, w.t.copy(head))
		w.join(&back, tg.cont)
		if !back.live {
			break
		}
		if post != nil {
			back.s = w.t.node(post, back.s)
		}
		next := w.t.meet(head, back.s)
		if w.t.equal(next, head) {
			break
		}
		head = next
	}
	if exits {
		w.join(&tg.out, path[S]{head, true})
	}
	return tg.out
}

// target finds the construct a break or continue leaves: the one its label
// names, else the innermost one (the innermost loop, for a continue).
func (w *flowWalker[S]) target(st *ast.BranchStmt) *flowTarget[S] {
	for i := len(w.targets) - 1; ; i-- {
		tg := w.targets[i]
		if st.Label != nil && st.Label.Name == tg.label ||
			st.Label == nil && (tg.loop || st.Tok == token.BREAK) {
			return tg
		}
	}
}

func (w *flowWalker[S]) push(label string, loop bool) *flowTarget[S] {
	tg := &flowTarget[S]{label: label, loop: loop}
	w.targets = append(w.targets, tg)
	return tg
}

func (w *flowWalker[S]) pop() { w.targets = w.targets[:len(w.targets)-1] }
