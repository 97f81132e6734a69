package sql

import (
	"fmt"
	"strings"

	"systemr/internal/value"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// accepted).
func Parse(input string) (Statement, error) {
	pooled, toks, err := lexPooled(input)
	defer releaseTokens(pooled, toks)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// LeadingKeyword returns the upper-cased first keyword of a statement's text
// ("" when it does not start with a keyword, or its first token fails to
// lex) — the session layer's cheap dispatch for routing BEGIN/COMMIT/ROLLBACK
// without a second full parse of ordinary statements. It lexes one token.
func LeadingKeyword(input string) string {
	t, _, err := scanToken(input, 0)
	if err != nil || t.kind != tokKeyword {
		return ""
	}
	return t.text
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks     []token
	i        int
	hostVars int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token matches kind (and text, if non-empty).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a required token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokIdent: "identifier", tokInt: "integer", tokString: "string"}[kind]
	}
	return token{}, p.errorf("expected %s, found %s", want, p.peek())
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("syntax error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// identLike consumes an identifier, also accepting keywords usable as names
// (aggregate names, type names) so "SELECT MIN FROM ..." style schemas parse.
func (p *parser) identLike() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, found %s", t)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "BEGIN"):
		p.next()
		p.acceptTxnNoise()
		return &BeginStmt{}, nil
	case p.at(tokKeyword, "COMMIT"):
		p.next()
		p.acceptTxnNoise()
		return &CommitStmt{}, nil
	case p.at(tokKeyword, "ROLLBACK"):
		p.next()
		p.acceptTxnNoise()
		return &RollbackStmt{}, nil
	case p.at(tokKeyword, "EXPLAIN"):
		p.next()
		analyze := p.accept(tokKeyword, "ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		switch inner.(type) {
		case *SelectStmt:
		case *DeleteStmt, *UpdateStmt:
			if analyze {
				return nil, p.errorf("EXPLAIN ANALYZE supports SELECT statements")
			}
		default:
			return nil, p.errorf("EXPLAIN supports SELECT, DELETE, and UPDATE statements")
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.errorf("expected a statement, found %s", p.peek())
	}
}

// acceptTxnNoise consumes the optional TRANSACTION/WORK noise word after
// BEGIN, COMMIT, and ROLLBACK. The words are deliberately not lexer keywords
// — schemas using them as identifiers keep parsing — so they arrive as plain
// identifiers matched case-insensitively.
func (p *parser) acceptTxnNoise() {
	t := p.peek()
	if t.kind == tokIdent {
		switch strings.ToUpper(t.text) {
		case "TRANSACTION", "WORK":
			p.next()
		}
	}
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	clustered := p.accept(tokKeyword, "CLUSTERED")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique || clustered {
			return nil, p.errorf("UNIQUE/CLUSTERED apply to CREATE INDEX, not CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex(unique, clustered)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.identLike()
		if err != nil {
			return nil, err
		}
		kind, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: strings.ToUpper(cn), Type: kind})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	segment := ""
	if p.accept(tokKeyword, "IN") {
		if _, err := p.expect(tokKeyword, "SEGMENT"); err != nil {
			return nil, err
		}
		seg, err := p.identLike()
		if err != nil {
			return nil, err
		}
		segment = seg
	}
	return &CreateTableStmt{Name: strings.ToUpper(name), Cols: cols, Segment: segment}, nil
}

func (p *parser) parseType() (value.Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errorf("expected a type name, found %s", t)
	}
	p.next()
	var kind value.Kind
	switch t.text {
	case "INTEGER", "INT":
		kind = value.KindInt
	case "FLOAT", "REAL":
		kind = value.KindFloat
	case "VARCHAR", "CHAR":
		kind = value.KindString
	default:
		return 0, p.errorf("unknown type %s", t.text)
	}
	// Optional length, e.g. VARCHAR(20) — parsed and ignored.
	if p.accept(tokPunct, "(") {
		if _, err := p.expect(tokInt, ""); err != nil {
			return 0, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

func (p *parser) parseCreateIndex(unique, clustered bool) (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		cn, err := p.identLike()
		if err != nil {
			return nil, err
		}
		cols = append(cols, strings.ToUpper(cn))
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{
		Name: strings.ToUpper(name), Table: strings.ToUpper(table),
		Columns: cols, Unique: unique, Clustered: clustered,
	}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tokKeyword, "TABLE"):
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: strings.ToUpper(name)}, nil
	case p.accept(tokKeyword, "INDEX"):
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: strings.ToUpper(name)}, nil
	default:
		return nil, p.errorf("expected TABLE or INDEX after DROP")
	}
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	// Every value is carved from vals, and rows are sized by what the tokens
	// left promise: the exact counts when every value is a literal. A row
	// carved before vals outgrows its array keeps the old one.
	nvals, nrows := valuesSize(p.toks[p.i:])
	ins := &InsertStmt{Table: strings.ToUpper(table), Rows: make([]value.Row, 0, nrows)}
	vals := make([]value.Value, 0, nvals)
	for {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		start := len(vals)
		for {
			v, ok := p.literal()
			if !ok {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if lit, isLit := e.(*Literal); isLit {
					v = lit.Val
				} else {
					ins.Exprs = append(ins.Exprs, RowExpr{Row: len(ins.Rows), Col: len(vals) - start, Expr: e})
				}
			}
			vals = append(vals, v)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, vals[start:len(vals):len(vals)])
		if !p.accept(tokPunct, ",") {
			return ins, nil
		}
	}
}

// literal reads the value at the parser's position when it is a literal
// that stands alone — a number, a string, NULL, or a negated number,
// followed by ',' or ')' — which parseExpr would fold to a *Literal, so a
// VALUES list of literals builds no expression.
func (p *parser) literal() (value.Value, bool) {
	i := p.i
	neg := isPunct(p.toks[i], "-")
	if neg {
		i++
	}
	t := p.toks[i]
	if t.kind == tokEOF || !isPunct(p.toks[i+1], ",") && !isPunct(p.toks[i+1], ")") {
		return value.Value{}, false
	}
	var v value.Value
	switch {
	case t.kind == tokInt || t.kind == tokFloat:
		v = literalValue(t)
		if neg {
			v = negate(v)
		}
	case neg:
		return value.Value{}, false
	case t.kind == tokString:
		v = literalValue(t)
	case isKeyword(t, "NULL"):
	default:
		return value.Value{}, false
	}
	p.i = i + 1
	return v, true
}

// valuesSize bounds the values and rows of a VALUES list of literals by
// counting toks' number, string and NULL tokens and its '(' tokens.
func valuesSize(toks []token) (vals, rows int) {
	for _, t := range toks {
		switch {
		case t.kind == tokInt || t.kind == tokFloat || t.kind == tokString || isKeyword(t, "NULL"):
			vals++
		case isPunct(t, "("):
			rows++
		}
	}
	return vals, rows
}

// negate folds a negated number literal, as the parser reads -5 or -2.5.
func negate(v value.Value) value.Value {
	if v.Kind == value.KindInt {
		return value.NewInt(-v.Int)
	}
	return value.NewFloat(-v.Float)
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	alias := ""
	if p.at(tokIdent, "") {
		alias, _ = p.identLike()
	}
	var where Expr
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		where = w
	}
	return &DeleteStmt{Table: strings.ToUpper(table), Alias: alias, Where: where}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	if p.accept(tokKeyword, "STATISTICS") {
		st := &UpdateStatsStmt{}
		if p.at(tokIdent, "") {
			name, _ := p.identLike()
			st.Table = strings.ToUpper(name)
		}
		return st, nil
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	alias := ""
	if p.at(tokIdent, "") {
		alias, _ = p.identLike()
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	var sets []SetClause
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, SetClause{Column: strings.ToUpper(col), Expr: e})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	var where Expr
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		where = w
	}
	return &UpdateStmt{Table: strings.ToUpper(table), Alias: alias, Sets: sets, Where: where}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Distinct: p.accept(tokKeyword, "DISTINCT")}
	// SELECT list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	// FROM list.
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: strings.ToUpper(name)}
		if p.accept(tokKeyword, "AS") {
			a, err := p.identLike()
			if err != nil {
				return nil, err
			}
			ref.Alias = strings.ToUpper(a)
		} else if p.at(tokIdent, "") {
			a, _ := p.identLike()
			ref.Alias = strings.ToUpper(a)
		}
		sel.From = append(sel.From, ref)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokPunct, "*") {
		return SelectItem{Star: true}, nil
	}
	// Qualified star: T.*
	if p.at(tokIdent, "") && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokPunct && p.toks[p.i+2].text == "*" {
		t := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, Expr: &ColumnRef{Table: strings.ToUpper(t)}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.identLike()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = strings.ToUpper(a)
	} else if p.at(tokIdent, "") {
		a, _ := p.identLike()
		item.Alias = strings.ToUpper(a)
	}
	return item, nil
}

// Expression grammar, lowest precedence first:
//
//	expr     := and ( OR and )*
//	and      := not ( AND not )*
//	not      := NOT not | predicate
//	predicate:= additive ( cmp additive | [NOT] BETWEEN .. AND .. | [NOT] IN (..) )?
//	additive := term ( (+|-) term )*
//	term     := factor ( (*|/) factor )*
//	factor   := - factor | primary
//	primary  := literal | column | aggregate | ( expr ) | ( SELECT ... )
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]BinOp{"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokPunct {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	negated := false
	if p.at(tokKeyword, "NOT") &&
		(p.toks[p.i+1].kind == tokKeyword && (p.toks[p.i+1].text == "BETWEEN" || p.toks[p.i+1].text == "IN")) {
		p.next()
		negated = true
	}
	switch {
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi, Negated: negated}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		if p.at(tokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return &InSubqueryExpr{E: left, Select: sub, Negated: negated}, nil
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return &InListExpr{E: left, List: list, Negated: negated}, nil
	}
	if negated {
		return nil, p.errorf("expected BETWEEN or IN after NOT")
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpAdd, L: left, R: r}
		case p.accept(tokPunct, "-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpSub, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "*"):
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpMul, L: left, R: r}
		case p.accept(tokPunct, "/"):
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: OpDiv, L: left, R: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (Expr, error) {
	if p.accept(tokPunct, "-") {
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok && (lit.Val.Kind == value.KindInt || lit.Val.Kind == value.KindFloat) {
			return &Literal{Val: negate(lit.Val)}, nil // fold negative literals
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

var aggregates = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat, tokString:
		p.next()
		return &Literal{Val: literalValue(t)}, nil
	case tokKeyword:
		switch {
		case t.text == "NULL":
			p.next()
			return &Literal{Val: value.Null()}, nil
		case aggregates[t.text]:
			p.next()
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			if t.text == "COUNT" && p.accept(tokPunct, "*") {
				if _, err := p.expect(tokPunct, ")"); err != nil {
					return nil, err
				}
				return &FuncExpr{Name: "COUNT", Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return &FuncExpr{Name: t.text, Arg: arg}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.text)
	case tokPunct:
		if t.text == "?" {
			p.next()
			hv := &HostVar{Index: p.hostVars}
			p.hostVars++
			return hv, nil
		}
		if t.text == "(" {
			p.next()
			if p.at(tokKeyword, "SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokPunct, ")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case tokIdent:
		p.next()
		name := strings.ToUpper(t.text)
		if p.accept(tokPunct, ".") {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: strings.ToUpper(col)}, nil
		}
		return &ColumnRef{Column: name}, nil
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}
