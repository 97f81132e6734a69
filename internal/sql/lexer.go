package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unsafe"

	"systemr/internal/freelist"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPunct
)

// token is one lexical token with its source position for error messages.
type token struct {
	kind tokenKind
	text string // keywords upper-cased; punct canonical; strings unquoted
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of statement"
	case tokString:
		return "'" + t.text + "'"
	default:
		return t.text
	}
}

// keywords recognized by the lexer. Identifiers matching these (case-
// insensitively) become tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "DISTINCT": true, "AND": true,
	"OR": true, "NOT": true, "BETWEEN": true, "IN": true, "AS": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "UNIQUE": true,
	"CLUSTERED": true, "ON": true, "INSERT": true, "INTO": true,
	"VALUES": true, "DELETE": true, "UPDATE": true, "SET": true,
	"STATISTICS": true, "EXPLAIN": true, "ANALYZE": true, "DROP": true, "NULL": true,
	"INTEGER": true, "INT": true, "FLOAT": true, "REAL": true,
	"VARCHAR": true, "CHAR": true, "SEGMENT": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// lexError is a lexical error with position context.
type lexError struct {
	msg string
	pos int
}

func (e *lexError) Error() string { return fmt.Sprintf("syntax error at offset %d: %s", e.pos, e.msg) }

// tokMaxBytes caps the token slices tokens keeps: 32,768 tokens, more
// than a 500-row INSERT of four columns lexes into.
const tokMaxBytes = 1 << 20

// tokens holds the token slices Parse and normalize lex into. Both are done
// with their tokens when they return, so each reuses a slice an earlier
// text grew instead of growing one by appending.
var tokens = freelist.New(tokMaxBytes, func(p *[]token) int {
	return cap(*p) * int(unsafe.Sizeof(token{}))
})

// lexPooled lexes input into a slice from tokens. The caller hands the
// slice back with releaseTokens on every path, the error path included,
// and keeps no token: the tokens' strings are cleared.
func lexPooled(input string) (*[]token, []token, error) {
	p := tokens.Get()
	toks, err := appendTokens((*p)[:0], input)
	return p, toks, err
}

// releaseTokens clears toks, which lexPooled returned with p, so the free
// list pins no statement text, and returns the slice to the list.
func releaseTokens(p *[]token, toks []token) {
	clear(toks)
	*p = toks[:0]
	tokens.Put(p)
}

// appendTokens appends input's tokens, ending with tokEOF, to toks. On an
// error it returns the tokens appended before it with the error.
func appendTokens(toks []token, input string) ([]token, error) {
	for i := 0; ; {
		t, next, err := scanToken(input, i)
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
		i = next
	}
}

// scanToken skips the blanks and comments at input[i:] and reads the token
// after them, returning it and the offset past it; at the end of input the
// token is tokEOF.
func scanToken(input string, i int) (token, int, error) {
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // doubled quote escape
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return token{}, i, &lexError{msg: "unterminated string literal", pos: start}
			}
			return token{kind: tokString, text: sb.String(), pos: start}, i, nil
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' {
				isFloat = true
				i++
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				isFloat = true
				i++
				if i < n && (input[i] == '+' || input[i] == '-') {
					i++
				}
				for i < n && (input[i] >= '0' && input[i] <= '9') {
					i++
				}
			}
			text := input[start:i]
			kind := tokInt
			if isFloat {
				kind = tokFloat
				if _, err := strconv.ParseFloat(text, 64); err != nil {
					return token{}, i, &lexError{msg: "bad numeric literal " + text, pos: start}
				}
			} else if _, err := strconv.ParseInt(text, 10, 64); err != nil {
				return token{}, i, &lexError{msg: "bad integer literal " + text, pos: start}
			}
			return token{kind: kind, text: text, pos: start}, i, nil
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				return token{kind: tokKeyword, text: upper, pos: start}, i, nil
			}
			return token{kind: tokIdent, text: word, pos: start}, i, nil
		default:
			start := i
			var p string
			switch c {
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					p = input[i : i+2]
					i += 2
				} else {
					p = "<"
					i++
				}
			case '>':
				if i+1 < n && input[i+1] == '=' {
					p = ">="
					i += 2
				} else {
					p = ">"
					i++
				}
			case '!':
				if i+1 < n && input[i+1] == '=' {
					p = "<>" // canonicalize != to <>
					i += 2
				} else {
					return token{}, i, &lexError{msg: "unexpected character '!'", pos: i}
				}
			case '=', '(', ')', ',', '+', '-', '*', '/', '.', ';', '?':
				p = input[i : i+1]
				i++
			default:
				return token{}, i, &lexError{msg: fmt.Sprintf("unexpected character %q", c), pos: i}
			}
			return token{kind: tokPunct, text: p, pos: start}, i, nil
		}
	}
	return token{kind: tokEOF, pos: n}, n, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }

func isIdentPart(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
