// Package sem performs the semantic-analysis half of the paper's OPTIMIZER
// component (Section 2): it looks up the tables and columns referenced by a
// query block in the catalogs, checks type compatibility, converts the WHERE
// tree to conjunctive normal form — every conjunct being a "boolean factor" —
// and classifies each factor: sargable predicates (expressible as RSS search
// arguments), equi-join predicates, and residual predicates. The access-path
// selection proper (package core) consumes this analyzed form.
package sem

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"systemr/internal/catalog"
	"systemr/internal/sql"
	"systemr/internal/value"
)

// MaxRels is the maximum number of relations in one query block's FROM list.
const MaxRels = 30

// RelSet is a bitset over the relations of one query block.
type RelSet uint32

// Set returns s with relation i added.
func (s RelSet) Set(i int) RelSet { return s | 1<<uint(i) }

// Has reports whether relation i is in the set.
func (s RelSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Union returns the union of two sets.
func (s RelSet) Union(o RelSet) RelSet { return s | o }

// Contains reports whether o ⊆ s.
func (s RelSet) Contains(o RelSet) bool { return s&o == o }

// Count returns the number of relations in the set.
func (s RelSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Single returns the lone relation index; Count must be 1.
func (s RelSet) Single() int { return bits.TrailingZeros32(uint32(s)) }

// Members returns the relation indexes in ascending order.
func (s RelSet) Members() []int {
	out := make([]int, 0, s.Count())
	for i := 0; i < 32; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// ColumnID names one column of one FROM-list relation of a query block.
type ColumnID struct {
	Rel int // index into Block.Rels
	Col int // column ordinal within the relation
}

// RelRef is one FROM-list entry after catalog lookup.
type RelRef struct {
	Idx   int
	Table *catalog.Table
	Name  string // correlation name: the alias, or the table name
}

// ColName renders rel.col for display.
func (b *Block) ColName(id ColumnID) string {
	r := b.Rels[id.Rel]
	return r.Name + "." + r.Table.Columns[id.Col].Name
}

// ColType returns the declared type of a column.
func (b *Block) ColType(id ColumnID) value.Kind {
	return b.Rels[id.Rel].Table.Columns[id.Col].Type
}

// Expr is a resolved, type-checked expression.
type Expr interface {
	Type() value.Kind
	String() string
	semExpr()
}

// Col is a reference to a column of this block's FROM list.
type Col struct {
	ID   ColumnID
	Name string // display name rel.col
	Typ  value.Kind
}

// Const is a literal constant. Lift is 1 + the index of the statement
// argument a lifted literal was turned into (0: an ordinary literal): the
// plan is shared by every statement of its lifted text, so the executor
// reads the value from the statement's arguments, while sem and the
// optimizer see Val, the literal the plan was compiled with. A host
// variable (?) is a lifted literal compiled without a value: its Val is
// NULL, which sql.Lift never lifts.
type Const struct {
	Val  value.Value
	Lift int
}

// Param is a runtime parameter: a correlation reference bound by an outer
// query block (Section 6), or a slot the optimizer binds (join values,
// evaluated subquery results).
type Param struct {
	ID   int
	Typ  value.Kind
	Name string // display, e.g. "X.MANAGER"
}

// Bin is a binary operation: arithmetic, comparison, or AND/OR. The Op uses
// the parser's operator enumeration.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// BinOp is the parser's operator enumeration: an analyzed expression
// carries the parsed operator unchanged.
type BinOp = sql.BinOp

// Binary operators, re-exported so that the packages that read analyzed
// trees need not import the parser.
const (
	OpAdd = sql.OpAdd
	OpSub = sql.OpSub
	OpMul = sql.OpMul
	OpDiv = sql.OpDiv
	OpEq  = sql.OpEq
	OpNe  = sql.OpNe
	OpLt  = sql.OpLt
	OpLe  = sql.OpLe
	OpGt  = sql.OpGt
	OpGe  = sql.OpGe
	OpAnd = sql.OpAnd
	OpOr  = sql.OpOr
)

// Not is logical negation.
type Not struct{ E Expr }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

// Between is E [NOT] BETWEEN Lo AND Hi.
type Between struct {
	E, Lo, Hi Expr
	Negated   bool
}

// InList is E [NOT] IN (e1, ..., en).
type InList struct {
	E       Expr
	List    []Expr
	Negated bool
}

// InSub is E [NOT] IN (subquery).
type InSub struct {
	E       Expr
	Sub     *Subquery
	Negated bool
}

// ScalarSub is a subquery used as a scalar operand; it must return a single
// value (Section 6).
type ScalarSub struct{ Sub *Subquery }

// AggRef refers to the block's i-th aggregate output.
type AggRef struct {
	Idx  int
	Typ  value.Kind
	Name string
}

func (*Col) semExpr()       {}
func (*Const) semExpr()     {}
func (*Param) semExpr()     {}
func (*Bin) semExpr()       {}
func (*Not) semExpr()       {}
func (*Neg) semExpr()       {}
func (*Between) semExpr()   {}
func (*InList) semExpr()    {}
func (*InSub) semExpr()     {}
func (*ScalarSub) semExpr() {}
func (*AggRef) semExpr()    {}

// Type implementations.

func (e *Col) Type() value.Kind   { return e.Typ }
func (e *Const) Type() value.Kind { return e.Val.Kind }
func (e *Param) Type() value.Kind { return e.Typ }

func (e *Bin) Type() value.Kind {
	if e.Op.IsComparison() || e.Op == OpAnd || e.Op == OpOr {
		return value.KindInt // boolean as 0/1
	}
	if e.L.Type() == value.KindFloat || e.R.Type() == value.KindFloat {
		return value.KindFloat
	}
	return e.L.Type()
}

func (e *Not) Type() value.Kind       { return value.KindInt }
func (e *Neg) Type() value.Kind       { return e.E.Type() }
func (e *Between) Type() value.Kind   { return value.KindInt }
func (e *InList) Type() value.Kind    { return value.KindInt }
func (e *InSub) Type() value.Kind     { return value.KindInt }
func (e *ScalarSub) Type() value.Kind { return e.Sub.Block.Select[0].Type() }
func (e *AggRef) Type() value.Kind    { return e.Typ }

// String implementations (EXPLAIN display form): each is Format with the
// literals the expression was compiled with.

func (e *Col) String() string       { return Format(e, nil) }
func (e *Const) String() string     { return Format(e, nil) }
func (e *Param) String() string     { return Format(e, nil) }
func (e *Bin) String() string       { return Format(e, nil) }
func (e *Not) String() string       { return Format(e, nil) }
func (e *Neg) String() string       { return Format(e, nil) }
func (e *Between) String() string   { return Format(e, nil) }
func (e *InList) String() string    { return Format(e, nil) }
func (e *InSub) String() string     { return Format(e, nil) }
func (e *ScalarSub) String() string { return Format(e, nil) }
func (e *AggRef) String() string    { return Format(e, nil) }

// Format renders e for display. A lifted literal is spelled from lits, the
// statement's own values, when lits is non-nil, and as compiled otherwise:
// a cached plan shared across literals shows each statement its own.
func Format(e Expr, lits []value.Value) string {
	switch x := e.(type) {
	case *Col:
		return x.Name
	case *Const:
		return constSQL(x.Value(lits), x.Lift, lits)
	case *Param:
		if x.Name != "" {
			return "$" + x.Name
		}
		return fmt.Sprintf("$%d", x.ID)
	case *Bin:
		return "(" + Format(x.L, lits) + " " + x.Op.String() + " " + Format(x.R, lits) + ")"
	case *Not:
		return "NOT " + Format(x.E, lits)
	case *Neg:
		return "-" + Format(x.E, lits)
	case *Between:
		not := ""
		if x.Negated {
			not = "NOT "
		}
		return Format(x.E, lits) + " " + not + "BETWEEN " + Format(x.Lo, lits) + " AND " + Format(x.Hi, lits)
	case *InList:
		parts := make([]string, len(x.List))
		for i, v := range x.List {
			parts[i] = Format(v, lits)
		}
		not := ""
		if x.Negated {
			not = "NOT "
		}
		return Format(x.E, lits) + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
	case *InSub:
		not := ""
		if x.Negated {
			not = "NOT "
		}
		return fmt.Sprintf("%s %sIN (subquery#%d)", Format(x.E, lits), not, x.Sub.ID)
	case *ScalarSub:
		return fmt.Sprintf("(subquery#%d)", x.Sub.ID)
	case *AggRef:
		return x.Name
	default:
		return fmt.Sprintf("%T", e)
	}
}

// Value is the constant's value in a statement whose lifted literals are
// lits (nil: the value compiled with).
func (e *Const) Value(lits []value.Value) value.Value {
	if e.Lift > 0 && lits != nil {
		return lits[e.Lift-1]
	}
	return e.Val
}

// constSQL spells v, a constant's value in a statement whose lifted
// literals are lits. A host variable shown without a statement's values
// has none: it is spelled ?n.
func constSQL(v value.Value, lift int, lits []value.Value) string {
	if lift > 0 && lits == nil && v.IsNull() {
		return "?" + strconv.Itoa(lift)
	}
	return v.SQL()
}

// Agg is one aggregate computed by the block.
type Agg struct {
	Name string // COUNT, SUM, AVG, MIN, MAX
	Arg  Expr   // nil for COUNT(*)
	Star bool
	Typ  value.Kind
}

// String renders the aggregate call.
func (a *Agg) String() string {
	if a.Star {
		return a.Name + "(*)"
	}
	return a.Name + "(" + a.Arg.String() + ")"
}

// Subquery is a nested query block appearing in a predicate (Section 6).
type Subquery struct {
	ID         int
	Block      *Block
	Scalar     bool // single-value (comparison operand) vs set (IN operand)
	Correlated bool // references values from an outer block
}

// CorrelRef describes one parameter of a block that is bound by its parent:
// either from a column of the parent's candidate tuple, or forwarded from
// one of the parent's own parameters (the paper's level-3-references-level-1
// case flows through the intermediate block).
type CorrelRef struct {
	ParamID     int      // slot in this block's parameter array
	FromCol     ColumnID // valid when !FromParam
	FromParam   bool
	ParentParam int // parent's slot when FromParam
}

// OrderKey is one element of an ordering specification: a column and a
// direction.
type OrderKey struct {
	Col  ColumnID
	Desc bool
}

// BoolFactor is one conjunct of the WHERE tree in conjunctive normal form.
// "Boolean factors are notable because every tuple returned to the user must
// satisfy every boolean factor."
type BoolFactor struct {
	Expr Expr   // full predicate, used for residual evaluation and selectivity
	Rels RelSet // relations of this block referenced

	// Lifted is true when the factor reads a lifted literal, so its
	// selectivity depends on the statement's values.
	Lifted bool
	// Subs are the subqueries referenced by the factor.
	Subs []*Subquery

	// EquiJoin is non-nil when the factor is T1.c1 = T2.c2 over two distinct
	// relations: a join predicate whose columns join an order-equivalence
	// class.
	EquiJoin *EquiJoinPred

	// SargDNF is non-nil when the whole factor is expressible as a search
	// argument: a boolean combination of sargable predicates on a single
	// relation, in disjunctive normal form (possibly headed by an OR). It is
	// the factor's one sargable form: the RSS applies it as a search
	// argument, and the optimizer reads it for index start/stop keys.
	SargDNF [][]SargTerm
}

// String renders the factor.
func (f *BoolFactor) String() string { return f.Expr.String() }

// Bound is a value that may only be known at runtime: a constant, a
// correlation/optimizer parameter, or the result of a non-correlated
// subquery evaluated before the scan opens.
type Bound struct {
	Kind  BoundKind
	Val   value.Value // BoundConst
	Lift  int         // BoundConst: as Const.Lift
	Param int         // BoundParam
	Sub   *Subquery   // BoundSub (scalar)
}

// BoundKind discriminates Bound.
type BoundKind uint8

// Bound kinds.
const (
	BoundConst BoundKind = iota
	BoundParam
	BoundSub
)

// String renders the bound.
func (b Bound) String() string { return b.Format(nil) }

// Format renders the bound, spelling a lifted literal as Format does.
func (b Bound) Format(lits []value.Value) string {
	switch b.Kind {
	case BoundConst:
		return constSQL(b.Value(lits), b.Lift, lits)
	case BoundParam:
		return fmt.Sprintf("$%d", b.Param)
	default:
		return fmt.Sprintf("(subquery#%d)", b.Sub.ID)
	}
}

// Value is a BoundConst's value in a statement whose lifted literals are
// lits (nil: the value compiled with).
func (b Bound) Value(lits []value.Value) value.Value {
	if b.Lift > 0 && lits != nil {
		return lits[b.Lift-1]
	}
	return b.Val
}

// EquiJoinPred is Left = Right across two relations.
type EquiJoinPred struct {
	Left, Right ColumnID
}

// SargDNF is a search argument: disjunctive normal form over sargable terms.
type SargDNF = [][]SargTerm

// SargTerm is one sargable comparison inside a factor's DNF.
type SargTerm struct {
	Col ColumnID
	Op  value.CmpOp
	Val Bound
}

// Block is one analyzed query block.
type Block struct {
	Rels    []*RelRef
	Factors []*BoolFactor

	// Select holds the output expressions; for aggregated blocks they are in
	// terms of AggRef and group columns.
	Select      []Expr
	SelectNames []string

	GroupBy []ColumnID
	// Having holds the post-grouping filter's conjuncts, each over group
	// columns and aggregate results (an extension beyond the 1979 paper;
	// SEQUEL 2 had HAVING).
	Having   []Expr
	OrderBy  []OrderKey
	Aggs     []*Agg
	HasAgg   bool
	Distinct bool

	// Subqueries contained anywhere in this block (not in nested blocks).
	Subqueries []*Subquery

	// Lifted counts the outermost block's statement arguments: its host
	// variables, or the literals sql.Lift lifted out of its text. A run
	// binds exactly that many, read by the lifted Consts of every block.
	Lifted int

	// CorrelRefs are this block's parameters bound by the parent block.
	CorrelRefs []CorrelRef
	// NumParams is the parameter-array size required by CorrelRefs; the
	// optimizer may extend the array with additional slots.
	NumParams int

	Parent *Block
}

// RelByName finds a FROM-list relation by correlation name.
func (b *Block) RelByName(name string) *RelRef {
	up := strings.ToUpper(name)
	for _, r := range b.Rels {
		if r.Name == up {
			return r
		}
	}
	return nil
}
