package sql

import (
	"strings"
	"testing"

	"systemr/internal/value"
)

// FuzzParse is a native fuzz target (go test -fuzz=FuzzParse ./internal/sql);
// in normal runs it exercises the seed corpus. Invariants: Parse returns a
// statement or an error — it never panics — and an INSERT's expressions
// name, in order, slots of its rows that hold NULL until they are
// evaluated.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE b = 1 AND c IN (1,2,3) ORDER BY a",
		"SELECT DISTINCT x.y FROM t x GROUP BY x.y HAVING COUNT(*) > ? ORDER BY x.y DESC",
		"CREATE UNIQUE CLUSTERED INDEX i ON t (a, b)",
		"INSERT INTO t VALUES (1, 'it''s', 2.5e3, NULL), (-1, '', 0, 4)",
		"INSERT INTO t VALUES (-0.0, - 5, -'x', (NULL)), (1 + 2, -(3), 'a''b', NULL), (7)",
		"INSERT INTO t VALUES (1, -",
		"INSERT INTO t VALUES (), (1,)",
		"INSERT INTO t VALUES (?, (SELECT a FROM u), x, -y)",
		"UPDATE t SET a = a * 2 WHERE b BETWEEN ? AND ?",
		"DELETE FROM t WHERE a IN (SELECT a FROM u WHERE b = t.c)",
		"EXPLAIN SELECT (SELECT MAX(x) FROM s) FROM t WHERE NOT a <> 5",
		"SELECT * FROM t WHERE a = 'unterminated",
		";;;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input) // must not panic
		ins, ok := st.(*InsertStmt)
		if err != nil || !ok {
			return
		}
		for i, e := range ins.Exprs {
			if e.Row >= len(ins.Rows) || e.Col >= len(ins.Rows[e.Row]) || !ins.Rows[e.Row][e.Col].IsNull() {
				t.Fatalf("%q: expression %d names row %d column %d, outside its rows or over a value", input, i, e.Row, e.Col)
			}
			if i > 0 && (e.Row < ins.Exprs[i-1].Row || e.Row == ins.Exprs[i-1].Row && e.Col <= ins.Exprs[i-1].Col) {
				t.Fatalf("%q: expressions out of order at %d", input, i)
			}
		}
	})
}

// FuzzLift is a native fuzz target (go test -fuzz=FuzzLift ./internal/sql)
// for the literal lifter's round trip: put the lifted values back into the
// lifted text, and Normalize must give the original's output — token for
// token, a literal's spelling aside (1.50 reads back as 1.5) — while
// lifting the result again gives the same text and values.
func FuzzLift(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t WHERE b = 1 AND c IN (1,2,3) ORDER BY a",
		"select x from t where y between 1.50 and 2e3 or 'it''s' <> z",
		"EXPLAIN ANALYZE SELECT a, 'lit?' FROM t WHERE a = 007 AND b = 'q?' GROUP BY a HAVING COUNT(*) > 1",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = 1) AND d NOT IN (4, 5.0) AND (e = 6)",
		"SELECT a FROM t WHERE a + 1 = 2 AND b = -3 AND 4 = c",
		"SELECT a FROM t WHERE a = ?",
		"DELETE FROM t WHERE a = 1",
		"UPDATE t SET a = 1, b = b + 2 WHERE c BETWEEN 3 AND 4 OR d IN ('x', 5.0)",
		"SELECT a FROM t WHERE a = 5 = 6",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		lifted, lits, ok := Lift(input)
		norm, normOK := Normalize(input)
		if ok != normOK {
			t.Fatalf("Lift ok=%v but Normalize ok=%v on %q", ok, normOK, input)
		}
		if !ok {
			return
		}
		back := lifted // a text with a ? of its own lifts nothing
		if lits != nil {
			back = bindLits(t, lifted, lits)
		}
		again, againOK := Normalize(back)
		if !againOK || !sameTokens(t, again, norm) {
			t.Fatalf("round trip of %q: lifted %q, values %v, read back as %q, want %q", input, lifted, lits, again, norm)
		}
		relifted, relits, _ := Lift(back)
		if relifted != lifted || len(relits) != len(lits) {
			t.Fatalf("lifting %q again gave %q %v, want %q %v", back, relifted, relits, lifted, lits)
		}
	})
}

// bindLits replaces the lifted text's ? tokens with literal spellings of
// lits, in order.
func bindLits(t *testing.T, lifted string, lits []value.Value) string {
	toks, err := appendTokens(nil, lifted)
	if err != nil {
		t.Fatalf("lifted text %q does not lex: %v", lifted, err)
	}
	var b strings.Builder
	for i, tok := range toks[:len(toks)-1] {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case tok.kind == tokPunct && tok.text == "?":
			if len(lits) == 0 {
				t.Fatalf("lifted text %q has more ? than values", lifted)
			}
			lit := lits[0].SQL()
			if lits[0].Kind == value.KindFloat && !strings.ContainsAny(lit, ".e") {
				lit += ".0" // still a FLOAT literal
			}
			b.WriteString(lit)
			lits = lits[1:]
		case tok.kind == tokString:
			b.WriteString("'" + strings.ReplaceAll(tok.text, "'", "''") + "'")
		default:
			b.WriteString(tok.text)
		}
	}
	if len(lits) > 0 {
		t.Fatalf("lifted text %q has fewer ? than values", lifted)
	}
	return b.String()
}

// sameTokens compares two normalized texts token by token, literals by
// kind and value.
func sameTokens(t *testing.T, a, b string) bool {
	ta, errA := appendTokens(nil, a)
	tb, errB := appendTokens(nil, b)
	if errA != nil || errB != nil || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		x, y := ta[i], tb[i]
		if x.kind != y.kind {
			return false
		}
		switch x.kind {
		case tokInt, tokFloat, tokString:
			if value.Compare(literalValue(x), literalValue(y)) != 0 {
				return false
			}
		default:
			if x.text != y.text {
				return false
			}
		}
	}
	return true
}
