package sql

import (
	"strconv"
	"strings"

	"systemr/internal/value"
)

// Normalize returns the canonical one-line spelling of a statement: tokens
// separated by single spaces, keywords upper-cased, comments dropped, `!=`
// canonicalized to `<>`, string literals re-quoted, and trailing semicolons
// removed. Identifier case is preserved — output column names derive from the
// written spelling, so folding it would be observable. The result is itself
// parseable SQL that reproduces the original statement's AST, which makes it
// both the plan-cache key and the text a stale cache entry is recompiled
// from. ok is false when the input does not lex (the parser will report the
// error).
func Normalize(input string) (norm string, ok bool) {
	norm, _, ok = normalize(input, false)
	return norm, ok
}

// Lift is Normalize that also lifts the comparison literals of a SELECT,
// UPDATE or DELETE to host variables, so that texts differing only in those
// constants share one cached plan. A number or string literal is lifted
// when it lies in the WHERE clause of the outermost query block, outside
// every subquery, and is a whole operand of a comparison (= <> < <= > >=),
// a bound of BETWEEN, or an element of an IN list. A literal next to an
// arithmetic operator stays, and so does every literal of the select list,
// an UPDATE's SET list, GROUP BY, HAVING and ORDER BY: output column names
// and the stored values' types never change. The lifted text spells each
// lifted literal as ?, and lits holds their values in text order, as the
// parser reads them.
//
// Only SELECT, UPDATE and DELETE texts, EXPLAIN of them included, without a
// ? of their own are lifted; for any other text, lits is nil and text is
// Normalize's output. ok is false when the input does not lex.
func Lift(input string) (text string, lits []value.Value, ok bool) {
	return normalize(input, true)
}

// normalize spells input's tokens canonically, lifting the literals
// liftSites marks when lift is set.
func normalize(input string, lift bool) (string, []value.Value, bool) {
	pooled, toks, err := lexPooled(input)
	defer releaseTokens(pooled, toks)
	if err != nil {
		return "", nil, false
	}
	// Drop trailing semicolons (the parser accepts one optional ';').
	end := len(toks) - 1 // toks[end] is EOF
	for end > 0 && toks[end-1].kind == tokPunct && toks[end-1].text == ";" {
		end--
	}
	var sites []bool
	if lift {
		sites = liftSites(toks, end)
	}
	var lits []value.Value
	var b strings.Builder
	b.Grow(len(input))
	for i := 0; i < end; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		t := toks[i]
		if sites != nil && sites[i] {
			b.WriteByte('?')
			lits = append(lits, literalValue(t))
			continue
		}
		if t.kind == tokString {
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(t.text, "'", "''"))
			b.WriteByte('\'')
			continue
		}
		b.WriteString(t.text)
	}
	return b.String(), lits, true
}

// literalValue reads a number or string token as parsePrimary does.
func literalValue(t token) value.Value {
	switch t.kind {
	case tokInt:
		v, _ := strconv.ParseInt(t.text, 10, 64)
		return value.NewInt(v)
	case tokFloat:
		v, _ := strconv.ParseFloat(t.text, 64)
		return value.NewFloat(v)
	default:
		return value.NewString(t.text)
	}
}

// liftSites marks the tokens of toks[:end] that Lift replaces with a host
// variable, or returns nil when the statement lifts nothing. It follows the
// grammar closely enough to find whole operands without parsing: a literal
// whose neighbours are not arithmetic operators is a whole operand of
// whatever surrounds it, since every operator that binds tighter than a
// comparison is arithmetic. A text the parser would reject may be marked
// wrongly; the engine parses the original text again to report its error.
func liftSites(toks []token, end int) []bool {
	i := 0
	if isKeyword(toks[i], "EXPLAIN") {
		i++
		if isKeyword(toks[i], "ANALYZE") {
			i++
		}
	}
	if !isKeyword(toks[i], "SELECT") && !isKeyword(toks[i], "UPDATE") && !isKeyword(toks[i], "DELETE") {
		return nil
	}
	for _, t := range toks[:end] {
		if isPunct(t, "?") {
			return nil
		}
	}
	// The outermost block's WHERE is the first one outside parentheses.
	for depth := 0; i < end && (depth != 0 || !isKeyword(toks[i], "WHERE")); i++ {
		switch {
		case isPunct(toks[i], "("):
			depth++
		case isPunct(toks[i], ")"):
			depth--
		}
	}
	if i == end {
		return nil
	}
	// One frame per open parenthesis: whether it opens an IN list, and
	// whether a BETWEEN at that level still waits for its AND.
	type frame struct{ inList, between bool }
	frames := []frame{{}}
	var sites []bool
	betweenAnd := -1 // index of the AND that separates BETWEEN's bounds
	for i++; i < end; i++ {
		t, top := toks[i], &frames[len(frames)-1]
		switch {
		case isPunct(t, "("):
			if isKeyword(toks[i+1], "SELECT") {
				i = closingParen(toks, i, end)
				continue
			}
			frames = append(frames, frame{inList: isKeyword(toks[i-1], "IN")})
		case isPunct(t, ")"):
			if len(frames) == 1 {
				return sites
			}
			frames = frames[:len(frames)-1]
		case len(frames) == 1 && (isKeyword(t, "GROUP") || isKeyword(t, "HAVING") || isKeyword(t, "ORDER")):
			return sites
		case isKeyword(t, "BETWEEN"):
			top.between = true
		case isKeyword(t, "AND") && top.between:
			top.between = false
			betweenAnd = i
		case t.kind == tokInt || t.kind == tokFloat || t.kind == tokString:
			prev, next := toks[i-1], toks[i+1]
			if isArith(prev) || isArith(next) {
				continue
			}
			operand := isComparison(prev) || isComparison(next) ||
				isKeyword(prev, "BETWEEN") || i-1 == betweenAnd ||
				top.inList && (isPunct(prev, "(") || isPunct(prev, ",")) && (isPunct(next, ",") || isPunct(next, ")"))
			if !operand {
				continue
			}
			if sites == nil {
				sites = make([]bool, end)
			}
			sites[i] = true
		}
	}
	return sites
}

// closingParen returns the index of the parenthesis closing the one at
// open, or end when it is never closed.
func closingParen(toks []token, open, end int) int {
	depth := 0
	for i := open; i < end; i++ {
		switch {
		case isPunct(toks[i], "("):
			depth++
		case isPunct(toks[i], ")"):
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return end
}

func isKeyword(t token, kw string) bool { return t.kind == tokKeyword && t.text == kw }

func isPunct(t token, p string) bool { return t.kind == tokPunct && t.text == p }

func isArith(t token) bool {
	return t.kind == tokPunct && (t.text == "+" || t.text == "-" || t.text == "*" || t.text == "/")
}

func isComparison(t token) bool {
	if t.kind != tokPunct {
		return false
	}
	_, ok := cmpOps[t.text]
	return ok
}
