// Package sql contains the SQL front end: the lexer, the recursive-descent
// parser, and the abstract syntax tree it produces. A parsed query block is,
// as in Section 2 of the paper, "a SELECT list, a FROM list, and a WHERE
// tree"; a statement may contain many query blocks because a predicate may
// have an operand which is itself a query.
package sql

import (
	"strings"
	"systemr/internal/check"

	"systemr/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type value.Kind
}

// CreateTableStmt is CREATE TABLE name (col type, ...) [IN SEGMENT seg].
type CreateTableStmt struct {
	Name    string
	Cols    []ColumnDef
	Segment string
}

// CreateIndexStmt is CREATE [UNIQUE] [CLUSTERED] INDEX name ON table (cols).
type CreateIndexStmt struct {
	Name      string
	Table     string
	Columns   []string
	Unique    bool
	Clustered bool
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Name string }

// DropIndexStmt is DROP INDEX name — removing an access path, which (as in
// System R) invalidates every compiled plan that depends on it.
type DropIndexStmt struct{ Name string }

// InsertStmt is INSERT INTO table VALUES (...), (...). Rows holds each
// row's values, carved from one array per statement: a literal — a number,
// a string, NULL, or a negated number — is read straight into its row, and
// only a value that is not one keeps its expression, in Exprs, with NULL in
// its row slot until execution evaluates it there. Execution also coerces
// the rows in place, so a parsed INSERT runs once.
type InsertStmt struct {
	Table string
	Rows  []value.Row
	Exprs []RowExpr // ascending by (Row, Col)
}

// RowExpr is an INSERT value that is not a literal: Rows[Row][Col]'s
// expression.
type RowExpr struct {
	Row, Col int
	Expr     Expr
}

// DeleteStmt is DELETE FROM table [alias] [WHERE expr].
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

// SetClause is one column = expr assignment of an UPDATE.
type SetClause struct {
	Column string
	Expr   Expr
}

// UpdateStmt is UPDATE table [alias] SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Alias string
	Sets  []SetClause
	Where Expr
}

// UpdateStatsStmt is the paper's UPDATE STATISTICS command; Table restricts
// the refresh to one relation ("" = all).
type UpdateStatsStmt struct{ Table string }

// BeginStmt is BEGIN [TRANSACTION|WORK]: start an explicit transaction on
// the session (Conn). Transaction-control statements reference no tables,
// take no locks, and never enter the plan cache.
type BeginStmt struct{}

// CommitStmt is COMMIT [TRANSACTION|WORK]: make the session's open
// transaction's writes durable and release its locks.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK [TRANSACTION|WORK]: undo the session's open
// transaction and release its locks.
type RollbackStmt struct{}

// ExplainStmt is EXPLAIN <select>: print the chosen plan instead of running
// it. With Analyze set (EXPLAIN ANALYZE <select>) the statement also
// executes and the plan is annotated with per-operator actuals.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

// SelectStmt is one query block.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
}

func (*SelectStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*DropIndexStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*UpdateStatsStmt) stmt() {}
func (*ExplainStmt) stmt()     {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// SelectItem is one element of the SELECT list. Star covers both bare "*"
// and qualified "T.*" (Expr is then a ColumnRef carrying only the qualifier).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef is one FROM-list element: a stored relation with an optional
// correlation name (alias).
type TableRef struct {
	Table string
	Alias string
}

// Name returns the name the relation is referred to by in the query.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, in no particular precedence order.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the SQL spelling.
func (op BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}[op]
}

// IsComparison reports whether op is one of the six scalar comparisons.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Flip returns the comparison with its operands swapped
// (a op b == b op.Flip() a); every other operator is returned unchanged.
func (op BinOp) Flip() BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// CmpOp converts a comparison BinOp to the value-level operator.
func (op BinOp) CmpOp() value.CmpOp {
	switch op {
	case OpEq:
		return value.OpEq
	case OpNe:
		return value.OpNe
	case OpLt:
		return value.OpLt
	case OpLe:
		return value.OpLe
	case OpGt:
		return value.OpGt
	case OpGe:
		return value.OpGe
	}
	check.Failf("sql: %v is not a comparison", op)
	return 0
}

// Expr is a parsed expression tree node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

// Literal is a constant.
type Literal struct{ Val value.Value }

// HostVar is a '?' placeholder bound by the host program at execution time
// (the paper's Section 2: statements issued from PL/I or COBOL programs are
// compiled once and run with program-supplied values). Index is the 0-based
// position of the '?' in the statement.
type HostVar struct{ Index int }

// BinaryExpr is L op R.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// NotExpr is NOT E.
type NotExpr struct{ E Expr }

// NegExpr is unary minus.
type NegExpr struct{ E Expr }

// BetweenExpr is E [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

// InListExpr is E [NOT] IN (literal, ...).
type InListExpr struct {
	E       Expr
	List    []Expr
	Negated bool
}

// SubqueryExpr is a scalar subquery used as an expression operand.
type SubqueryExpr struct{ Select *SelectStmt }

// InSubqueryExpr is E [NOT] IN (SELECT ...).
type InSubqueryExpr struct {
	E       Expr
	Select  *SelectStmt
	Negated bool
}

// FuncExpr is an aggregate function application.
type FuncExpr struct {
	Name string // COUNT, SUM, AVG, MIN, MAX (upper-cased)
	Arg  Expr   // nil when Star
	Star bool   // COUNT(*)
}

func (*ColumnRef) expr()      {}
func (*Literal) expr()        {}
func (*HostVar) expr()        {}
func (*BinaryExpr) expr()     {}
func (*NotExpr) expr()        {}
func (*NegExpr) expr()        {}
func (*BetweenExpr) expr()    {}
func (*InListExpr) expr()     {}
func (*SubqueryExpr) expr()   {}
func (*InSubqueryExpr) expr() {}
func (*FuncExpr) expr()       {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

func (e *Literal) String() string { return e.Val.SQL() }

func (e *HostVar) String() string { return "?" }

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

func (e *NotExpr) String() string { return "NOT " + e.E.String() }

func (e *NegExpr) String() string { return "-" + e.E.String() }

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negated {
		not = "NOT "
	}
	return e.E.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

func (e *InListExpr) String() string {
	parts := make([]string, len(e.List))
	for i, v := range e.List {
		parts[i] = v.String()
	}
	not := ""
	if e.Negated {
		not = "NOT "
	}
	return e.E.String() + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
}

func (e *SubqueryExpr) String() string { return "(subquery)" }

func (e *InSubqueryExpr) String() string {
	not := ""
	if e.Negated {
		not = "NOT "
	}
	return e.E.String() + " " + not + "IN (subquery)"
}

func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	return e.Name + "(" + e.Arg.String() + ")"
}
