package sql

import (
	"testing"

	"systemr/internal/value"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"select name from emp where dno = 50;", "SELECT name FROM emp WHERE dno = 50"},
		{"SELECT  NAME\n\tFROM EMP -- comment\n WHERE DNO=50", "SELECT NAME FROM EMP WHERE DNO = 50"},
		{"SELECT * FROM T WHERE A != 1", "SELECT * FROM T WHERE A <> 1"},
		{"SELECT 'it''s' FROM T;;", "SELECT 'it''s' FROM T"},
		{"SELECT V FROM T WHERE K = ?", "SELECT V FROM T WHERE K = ?"},
	}
	for _, c := range cases {
		got, ok := Normalize(c.in)
		if !ok {
			t.Fatalf("Normalize(%q) failed to lex", c.in)
		}
		if got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNormalizeRoundTrips asserts the normalized text is itself valid SQL
// that normalizes to the same string — the fixed-point property stale cache
// entries are recompiled through.
func TestNormalizeRoundTrips(t *testing.T) {
	stmts := []string{
		"SELECT NAME, SAL FROM EMP E WHERE E.DNO IN (1, 2, 3) ORDER BY SAL DESC",
		"select count(*) from emp group by dno having count(*) > 2",
		"EXPLAIN ANALYZE SELECT A.V FROM A, B WHERE A.K = B.K AND B.W = 105",
		"UPDATE STATISTICS EMP",
		"DROP INDEX EMP_DNO",
	}
	for _, s := range stmts {
		norm, ok := Normalize(s)
		if !ok {
			t.Fatalf("Normalize(%q) failed", s)
		}
		if _, err := Parse(norm); err != nil {
			t.Fatalf("normalized %q does not parse: %v", norm, err)
		}
		again, ok := Normalize(norm)
		if !ok || again != norm {
			t.Fatalf("Normalize not a fixed point: %q -> %q", norm, again)
		}
	}
}

func TestNormalizeLexError(t *testing.T) {
	if _, ok := Normalize("SELECT 'unterminated"); ok {
		t.Fatal("Normalize should fail on a lex error")
	}
}

func TestLift(t *testing.T) {
	cases := []struct {
		in, want string
		lits     []value.Value
	}{
		{"select name from emp where dno = 50;", "SELECT name FROM emp WHERE dno = ?", []value.Value{value.NewInt(50)}},
		{"SELECT A FROM T WHERE 1.5 < B AND C <> 'it''s'", "SELECT A FROM T WHERE ? < B AND C <> ?",
			[]value.Value{value.NewFloat(1.5), value.NewString("it's")}},
		{"SELECT A FROM T WHERE A NOT BETWEEN 1 AND 2 OR (B IN (3, 4) AND C BETWEEN 'a' AND 'b')",
			"SELECT A FROM T WHERE A NOT BETWEEN ? AND ? OR ( B IN ( ? , ? ) AND C BETWEEN ? AND ? )",
			[]value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4), value.NewString("a"), value.NewString("b")}},
		{"EXPLAIN ANALYZE SELECT A FROM T WHERE A = 7", "EXPLAIN ANALYZE SELECT A FROM T WHERE A = ?", []value.Value{value.NewInt(7)}},
		// Arithmetic operands, negative literals, function arguments and
		// parenthesized literals stay.
		{"SELECT A FROM T WHERE A + 1 = 2 * B AND B = -3 AND C = (4) AND D = 5 - E", "SELECT A FROM T WHERE A + 1 = 2 * B AND B = - 3 AND C = ( 4 ) AND D = 5 - E", nil},
		// Nothing outside the outermost WHERE, and nothing in a subquery.
		{"SELECT A, 1 FROM T WHERE A IN (SELECT B FROM U WHERE B = 1) AND A > (SELECT MAX(B) FROM U WHERE C = 2) AND D = 3 GROUP BY A HAVING COUNT(*) > 4 ORDER BY A",
			"SELECT A , 1 FROM T WHERE A IN ( SELECT B FROM U WHERE B = 1 ) AND A > ( SELECT MAX ( B ) FROM U WHERE C = 2 ) AND D = ? GROUP BY A HAVING COUNT ( * ) > 4 ORDER BY A",
			[]value.Value{value.NewInt(3)}},
		// UPDATE and DELETE lift their WHERE, never a SET value.
		{"DELETE FROM T WHERE A = 1", "DELETE FROM T WHERE A = ?", []value.Value{value.NewInt(1)}},
		{"EXPLAIN UPDATE T SET A = 2, B = (SELECT MAX(C) FROM U WHERE C = 3) WHERE A IN (4, 5)",
			"EXPLAIN UPDATE T SET A = 2 , B = ( SELECT MAX ( C ) FROM U WHERE C = 3 ) WHERE A IN ( ? , ? )",
			[]value.Value{value.NewInt(4), value.NewInt(5)}},
		// Statements of other kinds, and texts with a ? of their own.
		{"UPDATE STATISTICS T", "UPDATE STATISTICS T", nil},
		{"UPDATE T SET A = ? WHERE B = 2", "UPDATE T SET A = ? WHERE B = 2", nil},
		{"INSERT INTO T VALUES (1, 'x')", "INSERT INTO T VALUES ( 1 , 'x' )", nil},
		{"SELECT A FROM T WHERE A = ? AND B = 2", "SELECT A FROM T WHERE A = ? AND B = 2", nil},
		{"SELECT A FROM T", "SELECT A FROM T", nil},
	}
	for _, c := range cases {
		got, lits, ok := Lift(c.in)
		if !ok {
			t.Fatalf("Lift(%q) failed to lex", c.in)
		}
		if got != c.want || len(lits) != len(c.lits) {
			t.Fatalf("Lift(%q) = %q %v, want %q %v", c.in, got, lits, c.want, c.lits)
		}
		for i := range lits {
			if lits[i].Kind != c.lits[i].Kind || value.Compare(lits[i], c.lits[i]) != 0 {
				t.Fatalf("Lift(%q) value %d = %v, want %v", c.in, i, lits[i], c.lits[i])
			}
		}
		if c.lits == nil {
			if norm, _ := Normalize(c.in); got != norm {
				t.Fatalf("Lift(%q) = %q lifts nothing but differs from Normalize's %q", c.in, got, norm)
			}
		}
	}
	if _, _, ok := Lift("SELECT 'unterminated"); ok {
		t.Fatal("Lift should fail on a lex error")
	}
}
