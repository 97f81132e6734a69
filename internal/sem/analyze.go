package sem

import (
	"fmt"
	"strings"

	"systemr/internal/catalog"
	"systemr/internal/sql"
	"systemr/internal/value"
)

// Analyze resolves and type-checks one SELECT statement against the catalog
// and returns its analyzed query block (with nested blocks linked in).
func Analyze(sel *sql.SelectStmt, cat *catalog.Catalog) (*Block, error) {
	blk, _, err := AnalyzeLifted(sel, cat, nil)
	return blk, err
}

// AnalyzeLifted analyzes a SELECT, or an UPDATE or DELETE as the query
// block that locates its targets (dml.go), and returns the block and an
// UPDATE's SET columns. lits are the values of a text sql.Lift lifted: the
// i-th host variable is a literal whose value is lits[i]. It becomes a
// Const typed, checked and displayed exactly like that literal — errors
// read as they do for the original text. A host variable is a lifted Const
// either way, read from each run's arguments; with nil lits it has no
// compile-time value.
func AnalyzeLifted(st sql.Statement, cat *catalog.Catalog, lits []value.Value) (*Block, []int, error) {
	counter := 0
	a := &analyzer{cat: cat, subID: &counter, lits: lits}
	if sel, ok := st.(*sql.SelectStmt); ok {
		blk, err := a.analyzeSelect(sel)
		return blk, nil, err
	}
	return a.analyzeDML(st)
}

// analyzer carries the scope chain: parent points at the enclosing block's
// analyzer for correlation resolution.
type analyzer struct {
	cat    *catalog.Catalog
	block  *Block
	parent *analyzer
	subID  *int
	lits   []value.Value // the lifted literals' values, nil for no lifting
}

func (a *analyzer) analyzeSelect(sel *sql.SelectStmt) (*Block, error) {
	b := &Block{Distinct: sel.Distinct}
	a.block = b
	if a.parent != nil {
		b.Parent = a.parent.block
	}

	// FROM list: catalog lookup.
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("semantic error: empty FROM list")
	}
	if len(sel.From) > MaxRels {
		return nil, fmt.Errorf("semantic error: at most %d relations per query block", MaxRels)
	}
	seen := map[string]bool{}
	for i, ref := range sel.From {
		t, ok := a.cat.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("semantic error: table %s does not exist", ref.Table)
		}
		name := strings.ToUpper(ref.Name())
		if seen[name] {
			return nil, fmt.Errorf("semantic error: duplicate relation name %s in FROM list", name)
		}
		seen[name] = true
		b.Rels = append(b.Rels, &RelRef{Idx: i, Table: t, Name: name})
	}

	// WHERE: resolve, normalize NOTs, split into boolean factors, classify.
	if sel.Where != nil {
		w, err := a.resolveExpr(sel.Where, false)
		if err != nil {
			return nil, err
		}
		if err := requireBoolean(w); err != nil {
			return nil, err
		}
		norm := pushNot(w, false)
		for _, conj := range conjuncts(norm) {
			b.Factors = append(b.Factors, a.classify(conj))
		}
	}

	// GROUP BY columns must be plain column references.
	for _, g := range sel.GroupBy {
		cr, ok := g.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("semantic error: GROUP BY supports only column references, not %s", g)
		}
		col, err := a.resolveOwnColumn(cr)
		if err != nil {
			return nil, err
		}
		b.GroupBy = append(b.GroupBy, col.ID)
	}

	// Aggregation detection.
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if containsAggregate(item.Expr) {
			b.HasAgg = true
		}
	}
	if len(b.GroupBy) > 0 {
		b.HasAgg = true
	}

	// SELECT list.
	for _, item := range sel.Items {
		if item.Star {
			if b.HasAgg {
				return nil, fmt.Errorf("semantic error: SELECT * cannot be combined with aggregation")
			}
			rels := b.Rels
			if item.Expr != nil { // qualified star T.*
				qr := item.Expr.(*sql.ColumnRef)
				r := b.RelByName(qr.Table)
				if r == nil {
					return nil, fmt.Errorf("semantic error: unknown relation %s in %s.*", qr.Table, qr.Table)
				}
				rels = []*RelRef{r}
			}
			for _, r := range rels {
				for c := range r.Table.Columns {
					id := ColumnID{Rel: r.Idx, Col: c}
					b.Select = append(b.Select, &Col{ID: id, Name: b.ColName(id), Typ: b.ColType(id)})
					b.SelectNames = append(b.SelectNames, r.Table.Columns[c].Name)
				}
			}
			continue
		}
		e, err := a.resolveExpr(item.Expr, b.HasAgg)
		if err != nil {
			return nil, err
		}
		if b.HasAgg {
			if err := a.checkAggregated(e); err != nil {
				return nil, err
			}
		}
		name := item.Alias
		if name == "" {
			name = strings.ToUpper(item.Expr.String())
		}
		b.Select = append(b.Select, e)
		b.SelectNames = append(b.SelectNames, name)
	}
	if len(b.Select) == 0 {
		return nil, fmt.Errorf("semantic error: empty SELECT list")
	}

	// HAVING: a predicate over group columns and aggregates.
	if sel.Having != nil {
		if !b.HasAgg {
			return nil, fmt.Errorf("semantic error: HAVING requires GROUP BY or aggregates")
		}
		h, err := a.resolveExpr(sel.Having, true)
		if err != nil {
			return nil, err
		}
		if err := requireBoolean(h); err != nil {
			return nil, err
		}
		for _, conj := range conjuncts(pushNot(h, false)) {
			if err := a.checkAggregated(conj); err != nil {
				return nil, err
			}
			b.Having = append(b.Having, conj)
		}
	}

	// ORDER BY: plain columns of this block (for aggregated blocks, group-by
	// columns only — a 1979-era restriction we keep).
	for _, item := range sel.OrderBy {
		cr, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("semantic error: ORDER BY supports only column references, not %s", item.Expr)
		}
		col, err := a.resolveOwnColumn(cr)
		if err != nil {
			return nil, err
		}
		if b.HasAgg && !containsColumnID(b.GroupBy, col.ID) {
			return nil, fmt.Errorf("semantic error: ORDER BY column %s must appear in GROUP BY", col.Name)
		}
		b.OrderBy = append(b.OrderBy, OrderKey{Col: col.ID, Desc: item.Desc})
	}

	return b, nil
}

func containsColumnID(ids []ColumnID, id ColumnID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// resolveOwnColumn resolves a column reference strictly within this block.
func (a *analyzer) resolveOwnColumn(cr *sql.ColumnRef) (*Col, error) {
	e, err := a.resolveColumn(cr)
	if err != nil {
		return nil, err
	}
	col, ok := e.(*Col)
	if !ok {
		return nil, fmt.Errorf("semantic error: %s refers to an outer query block where a local column is required", cr)
	}
	return col, nil
}

// resolveColumn resolves a reference in this block's scope, walking outward
// for correlation (Section 6). A reference satisfied by an ancestor becomes a
// Param in this block, forwarded through intermediate blocks.
func (a *analyzer) resolveColumn(cr *sql.ColumnRef) (Expr, error) {
	b := a.block
	if cr.Table != "" {
		if r := b.RelByName(cr.Table); r != nil {
			c := r.Table.ColumnIndex(cr.Column)
			if c < 0 {
				return nil, fmt.Errorf("semantic error: column %s does not exist in %s", cr.Column, r.Name)
			}
			id := ColumnID{Rel: r.Idx, Col: c}
			return &Col{ID: id, Name: b.ColName(id), Typ: b.ColType(id)}, nil
		}
	} else {
		var found *Col
		for _, r := range b.Rels {
			if c := r.Table.ColumnIndex(cr.Column); c >= 0 {
				if found != nil {
					return nil, fmt.Errorf("semantic error: column %s is ambiguous", cr.Column)
				}
				id := ColumnID{Rel: r.Idx, Col: c}
				found = &Col{ID: id, Name: b.ColName(id), Typ: b.ColType(id)}
			}
		}
		if found != nil {
			return found, nil
		}
	}
	// Correlation: try the enclosing block.
	if a.parent == nil {
		return nil, fmt.Errorf("semantic error: column %s cannot be resolved", cr)
	}
	outer, err := a.parent.resolveColumn(cr)
	if err != nil {
		return nil, err
	}
	ref := CorrelRef{ParamID: a.block.NumParams}
	var typ value.Kind
	var name string
	switch oe := outer.(type) {
	case *Col:
		ref.FromCol = oe.ID
		typ, name = oe.Typ, oe.Name
	case *Param:
		ref.FromParam = true
		ref.ParentParam = oe.ID
		typ, name = oe.Typ, oe.Name
	default:
		return nil, fmt.Errorf("semantic error: cannot correlate on %s", cr)
	}
	a.block.NumParams++
	a.block.CorrelRefs = append(a.block.CorrelRefs, ref)
	return &Param{ID: ref.ParamID, Typ: typ, Name: name}, nil
}

// resolveExpr resolves a parsed expression. allowAgg permits aggregate
// functions (SELECT list of an aggregated block).
func (a *analyzer) resolveExpr(e sql.Expr, allowAgg bool) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Val}, nil
	case *sql.HostVar:
		// A host variable is a literal whose value each run supplies — not a
		// reference to an outer block, so no subquery correlates on it.
		c := &Const{Val: value.Null(), Lift: x.Index + 1}
		if a.lits != nil {
			if x.Index >= len(a.lits) {
				return nil, fmt.Errorf("semantic error: lifted literal %d has no value", x.Index+1)
			}
			c.Val = a.lits[x.Index]
		}
		root := a.block
		for root.Parent != nil {
			root = root.Parent
		}
		root.Lifted = max(root.Lifted, c.Lift)
		return c, nil
	case *sql.ColumnRef:
		return a.resolveColumn(x)
	case *sql.NegExpr:
		inner, err := a.resolveExpr(x.E, allowAgg)
		if err != nil {
			return nil, err
		}
		if err := NegOperand(inner); err != nil {
			return nil, err
		}
		return &Neg{E: inner}, nil
	case *sql.NotExpr:
		inner, err := a.resolveExpr(x.E, allowAgg)
		if err != nil {
			return nil, err
		}
		if err := requireBoolean(inner); err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *sql.BinaryExpr:
		l, err := a.resolveExpr(x.L, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := a.resolveExpr(x.R, allowAgg)
		if err != nil {
			return nil, err
		}
		op := x.Op
		switch {
		case op == OpAnd || op == OpOr:
			if err := requireBoolean(l); err != nil {
				return nil, err
			}
			if err := requireBoolean(r); err != nil {
				return nil, err
			}
		case op.IsComparison():
			if err := comparable(l, r); err != nil {
				return nil, err
			}
		default: // arithmetic
			if err := ArithOperands(l, r); err != nil {
				return nil, err
			}
		}
		return &Bin{Op: op, L: l, R: r}, nil
	case *sql.BetweenExpr:
		inner, err := a.resolveExpr(x.E, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := a.resolveExpr(x.Lo, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := a.resolveExpr(x.Hi, allowAgg)
		if err != nil {
			return nil, err
		}
		if err := comparable(inner, lo); err != nil {
			return nil, err
		}
		if err := comparable(inner, hi); err != nil {
			return nil, err
		}
		return &Between{E: inner, Lo: lo, Hi: hi, Negated: x.Negated}, nil
	case *sql.InListExpr:
		inner, err := a.resolveExpr(x.E, allowAgg)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			lv, err := a.resolveExpr(le, allowAgg)
			if err != nil {
				return nil, err
			}
			if err := comparable(inner, lv); err != nil {
				return nil, err
			}
			list[i] = lv
		}
		return &InList{E: inner, List: list, Negated: x.Negated}, nil
	case *sql.SubqueryExpr:
		sub, err := a.analyzeSubquery(x.Select, true)
		if err != nil {
			return nil, err
		}
		return &ScalarSub{Sub: sub}, nil
	case *sql.InSubqueryExpr:
		inner, err := a.resolveExpr(x.E, allowAgg)
		if err != nil {
			return nil, err
		}
		sub, err := a.analyzeSubquery(x.Select, false)
		if err != nil {
			return nil, err
		}
		if err := comparable(inner, sub.Block.Select[0]); err != nil {
			return nil, err
		}
		return &InSub{E: inner, Sub: sub, Negated: x.Negated}, nil
	case *sql.FuncExpr:
		if !allowAgg {
			return nil, fmt.Errorf("semantic error: aggregate %s is not allowed here", x.Name)
		}
		agg := &Agg{Name: x.Name, Star: x.Star}
		if !x.Star {
			arg, err := a.resolveExpr(x.Arg, false)
			if err != nil {
				return nil, err
			}
			if containsAggregateSem(arg) {
				return nil, fmt.Errorf("semantic error: nested aggregates are not allowed")
			}
			if (x.Name == "SUM" || x.Name == "AVG") && !arg.Type().Arithmetic() {
				return nil, fmt.Errorf("semantic error: %s requires an arithmetic argument, got %s", x.Name, arg.Type())
			}
			agg.Arg = arg
		}
		switch x.Name {
		case "COUNT":
			agg.Typ = value.KindInt
		case "AVG":
			agg.Typ = value.KindFloat
		default:
			agg.Typ = agg.Arg.Type()
		}
		idx := len(a.block.Aggs)
		a.block.Aggs = append(a.block.Aggs, agg)
		return &AggRef{Idx: idx, Typ: agg.Typ, Name: agg.String()}, nil
	default:
		return nil, fmt.Errorf("semantic error: unsupported expression %T", e)
	}
}

func (a *analyzer) analyzeSubquery(sel *sql.SelectStmt, scalar bool) (*Subquery, error) {
	child := &analyzer{cat: a.cat, parent: a, subID: a.subID, lits: a.lits}
	blk, err := child.analyzeSelect(sel)
	if err != nil {
		return nil, err
	}
	if len(blk.Select) != 1 {
		return nil, fmt.Errorf("semantic error: subquery must return exactly one column, returns %d", len(blk.Select))
	}
	*a.subID++
	sub := &Subquery{
		ID:         *a.subID,
		Block:      blk,
		Scalar:     scalar,
		Correlated: len(blk.CorrelRefs) > 0,
	}
	a.block.Subqueries = append(a.block.Subqueries, sub)
	return sub, nil
}

// checkAggregated verifies that every bare column in an aggregated block's
// output expression appears in GROUP BY.
func (a *analyzer) checkAggregated(e Expr) error {
	switch x := e.(type) {
	case *Col:
		if !containsColumnID(a.block.GroupBy, x.ID) {
			return fmt.Errorf("semantic error: column %s must appear in GROUP BY or inside an aggregate", x.Name)
		}
		return nil
	case *Const, *Param, *AggRef:
		return nil
	case *Bin:
		if err := a.checkAggregated(x.L); err != nil {
			return err
		}
		return a.checkAggregated(x.R)
	case *Neg:
		return a.checkAggregated(x.E)
	case *Not:
		return a.checkAggregated(x.E)
	case *Between:
		for _, sub := range []Expr{x.E, x.Lo, x.Hi} {
			if err := a.checkAggregated(sub); err != nil {
				return err
			}
		}
		return nil
	case *InList:
		if err := a.checkAggregated(x.E); err != nil {
			return err
		}
		for _, le := range x.List {
			if err := a.checkAggregated(le); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("semantic error: expression %s is not allowed over grouped output", e)
	}
}

// requireBoolean checks that e is usable as a predicate.
func requireBoolean(e Expr) error {
	switch x := e.(type) {
	case *Bin:
		if x.Op.IsComparison() || x.Op == OpAnd || x.Op == OpOr {
			return nil
		}
	case *Not, *Between, *InList, *InSub:
		return nil
	}
	return fmt.Errorf("semantic error: %s is not a predicate", e)
}

// comparable checks type compatibility of a comparison's operands.
func comparable(l, r Expr) error {
	lt, rt := l.Type(), r.Type()
	if lt == value.KindNull || rt == value.KindNull {
		return nil
	}
	if lt.Arithmetic() && rt.Arithmetic() {
		return nil
	}
	if lt == rt {
		return nil
	}
	return fmt.Errorf("semantic error: cannot compare %s %s with %s %s", lt, l, rt, r)
}

// NegOperand rejects negating a non-numeric operand; NULL passes.
func NegOperand(e Expr) error {
	if t := e.Type(); !t.Arithmetic() && t != value.KindNull {
		return fmt.Errorf("semantic error: cannot negate %s value %s", t, e)
	}
	return nil
}

// ArithOperands rejects arithmetic on a non-numeric operand; NULL passes.
func ArithOperands(l, r Expr) error {
	for _, e := range []Expr{l, r} {
		t := e.Type()
		if !t.Arithmetic() && t != value.KindNull {
			return fmt.Errorf("semantic error: arithmetic on non-numeric %s %s", t, e)
		}
	}
	return nil
}

// containsAggregate scans a parsed expression for aggregate functions.
func containsAggregate(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.FuncExpr:
		return true
	case *sql.BinaryExpr:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *sql.NotExpr:
		return containsAggregate(x.E)
	case *sql.NegExpr:
		return containsAggregate(x.E)
	case *sql.BetweenExpr:
		return containsAggregate(x.E) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	case *sql.InListExpr:
		if containsAggregate(x.E) {
			return true
		}
		for _, le := range x.List {
			if containsAggregate(le) {
				return true
			}
		}
	}
	return false
}

func containsAggregateSem(e Expr) bool {
	switch x := e.(type) {
	case *AggRef:
		return true
	case *Bin:
		return containsAggregateSem(x.L) || containsAggregateSem(x.R)
	case *Not:
		return containsAggregateSem(x.E)
	case *Neg:
		return containsAggregateSem(x.E)
	}
	return false
}
