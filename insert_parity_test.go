package systemr_test

// INSERT parity: a VALUES list of literals is read straight into rows, and
// only the values that are not literals become expressions. These tests
// load the same rows through both paths and require the same stored bytes,
// the same dump and the same errors.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"systemr"
)

const parityRows = 500

// paritySchema is P's table and indexes, created before any row.
var paritySchema = []string{
	"CREATE TABLE P (I INTEGER, F FLOAT, S VARCHAR, N INTEGER)",
	"CREATE INDEX P_I ON P (I)",
	"CREATE INDEX P_F ON P (F, S)",
}

// parityValue is one value of P spelled two ways: as a literal and as an
// expression that evaluates to the same stored value.
type parityValue struct{ lit, expr string }

// parityTable returns n seeded rows of P: negative and positive integers,
// fractional and integral FLOATs (integers stored into FLOAT), both FLOAT
// zeros, strings with quotes, and NULLs.
func parityTable(n int) [][]parityValue {
	rnd := rand.New(rand.NewSource(49))
	rows := make([][]parityValue, n)
	for r := range rows {
		i := rnd.Intn(2000) - 1000
		var f parityValue
		switch rnd.Intn(6) {
		case 0:
			f = parityValue{"-0.0", "0.0 * -1"}
		case 1:
			f = parityValue{"0.0", "0.0 + 0.0"}
		case 2:
			k := rnd.Intn(100) - 50
			f = parityValue{fmt.Sprint(k), fmt.Sprintf("%d + 0", k)} // an INTEGER into FLOAT
		case 3:
			f = parityValue{"NULL", "(NULL)"}
		default:
			x := float64(rnd.Intn(4000)-2000) / 8
			f = parityValue{fmt.Sprintf("%.3f", x), fmt.Sprintf("0.0 + %.3f", x)}
		}
		s := fmt.Sprintf("'s%d it''s'", rnd.Intn(50))
		nv := parityValue{"NULL", "(NULL)"}
		if rnd.Intn(3) > 0 {
			k := rnd.Intn(10)
			nv = parityValue{fmt.Sprint(-k), fmt.Sprintf("-(0 + %d)", k)}
		}
		iExpr := []string{"0 + %d", "%d * 1", "-(0 - %d)"}[r%3]
		rows[r] = []parityValue{{fmt.Sprint(i), fmt.Sprintf(iExpr, i)}, f, {s, "(" + s + ")"}, nv}
	}
	return rows
}

// spellValues renders rows as a VALUES list, each value as pick spells it.
func spellValues(rows [][]parityValue, pick func(r, c int, v parityValue) string) string {
	var b strings.Builder
	for r, row := range rows {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for c, v := range row {
			if c > 0 {
				b.WriteString(", ")
			}
			b.WriteString(pick(r, c, v))
		}
		b.WriteByte(')')
	}
	return b.String()
}

func asLiteral(_, _ int, v parityValue) string { return v.lit }
func asExpr(_, _ int, v parityValue) string    { return v.expr }

// parityDB creates P and runs load.
func parityDB(t *testing.T, load func(db *systemr.DB)) *systemr.DB {
	t.Helper()
	db := openDB(systemr.Config{})
	for _, s := range paritySchema {
		db.MustExec(s)
	}
	load(db)
	return db
}

// sameStore fails unless a and b hold byte-identical pages of P, the same
// index leaves and the same dump.
func sameStore(t *testing.T, name string, a, b *systemr.DB) {
	t.Helper()
	ta, _ := a.Catalog().Table("P")
	tb, _ := b.Catalog().Table("P")
	pa, pb := ta.Segment.Pages(), tb.Segment.Pages()
	if len(pa) != len(pb) {
		t.Fatalf("%s: P spans %d pages and %d", name, len(pa), len(pb))
	}
	for i := range pa {
		if a.Catalog().Disk().Page(pa[i]).Data != b.Catalog().Disk().Page(pb[i]).Data {
			t.Fatalf("%s: P's page %d differs", name, i)
		}
	}
	for i, ix := range ta.Indexes {
		if got, want := leavesBits(ix.Tree.Leaves()), leavesBits(tb.Indexes[i].Tree.Leaves()); got != want {
			t.Fatalf("%s: index %s holds %s and %s", name, ix.Name, got, want)
		}
	}
	var da, dbuf bytes.Buffer
	if err := a.DumpSQL(&da); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpSQL(&dbuf); err != nil {
		t.Fatal(err)
	}
	if da.String() != dbuf.String() {
		t.Fatalf("%s: the dumps differ:\n%s\n---\n%s", name, da.String(), dbuf.String())
	}
}

// TestInsertSpellingsStoreTheSameBytes: 500 rows stored by one multi-row
// INSERT of literals, by one INSERT per row of expressions inside one
// transaction, and by one multi-row INSERT alternating the two spellings
// value by value give byte-identical pages, index leaves and dumps.
func TestInsertSpellingsStoreTheSameBytes(t *testing.T) {
	rows := parityTable(parityRows)
	lit := parityDB(t, func(db *systemr.DB) {
		db.MustExec("INSERT INTO P VALUES " + spellValues(rows, asLiteral))
	})
	if res := lit.MustExec("SELECT COUNT(*) FROM P"); res.Rows[0][0] != int64(parityRows) {
		t.Fatalf("the literal INSERT stored %v rows, want %d", res.Rows[0][0], parityRows)
	}
	byRow := parityDB(t, func(db *systemr.DB) {
		x := db.Begin()
		for _, row := range rows {
			if _, err := x.Exec("INSERT INTO P VALUES " + spellValues([][]parityValue{row}, asExpr)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	sameStore(t, "literals vs expressions row by row", lit, byRow)
	mixed := parityDB(t, func(db *systemr.DB) {
		db.MustExec("INSERT INTO P VALUES " + spellValues(rows, func(r, c int, v parityValue) string {
			if (r+c)%2 == 0 {
				return v.lit
			}
			return v.expr
		}))
	})
	sameStore(t, "literals vs mixed spellings", lit, mixed)
}

// TestInsertBadRowLeavesNothing: a bad value in row 300 of 500 — a FLOAT
// into an INTEGER column, or a row one value short — fails the statement
// with the same error whether the rows are spelled as literals or as
// expressions, and leaves no row, no index entry and the same pages.
func TestInsertBadRowLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  []parityValue
		want string
	}{
		{"type mismatch", []parityValue{{"2.5", "0.5 + 2.0"}, {"1.0", "1.0"}, {"'x'", "'x'"}, {"NULL", "(NULL)"}}, "cannot store FLOAT value 2.5 in INTEGER column"},
		{"short row", []parityValue{{"1", "0 + 1"}, {"1.0", "1.0"}, {"'x'", "'x'"}}, "has 4 columns, row has 3"},
	} {
		rows := parityTable(parityRows)
		rows[299] = tc.bad
		var errs []string
		load := func(pick func(r, c int, v parityValue) string) func(db *systemr.DB) {
			return func(db *systemr.DB) {
				_, err := db.Exec("INSERT INTO P VALUES " + spellValues(rows, pick))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: INSERT with a bad row 300 returned %v, want %q", tc.name, err, tc.want)
				}
				errs = append(errs, err.Error())
			}
		}
		lit, ex := parityDB(t, load(asLiteral)), parityDB(t, load(asExpr))
		if errs[0] != errs[1] {
			t.Errorf("%s: the literal INSERT failed with %q, the expressions with %q", tc.name, errs[0], errs[1])
		}
		for _, db := range []*systemr.DB{lit, ex} {
			if res := db.MustExec("SELECT COUNT(*) FROM P"); res.Rows[0][0] != int64(0) {
				t.Errorf("%s: the failed INSERT left %v rows", tc.name, res.Rows[0][0])
			}
			p, _ := db.Catalog().Table("P")
			for _, ix := range p.Indexes {
				if n := ix.Tree.Len(); n != 0 {
					t.Errorf("%s: the failed INSERT left %d entries in %s", tc.name, n, ix.Name)
				}
			}
		}
		sameStore(t, tc.name, lit, ex)
	}
}
