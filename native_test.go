package systemr_test

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"systemr"
	"systemr/internal/value"
)

// plainNative is the reference conversion of a value to its result cell:
// each value boxed alone, as a plain Go conversion boxes it.
func plainNative(v value.Value) any {
	switch v.Kind {
	case value.KindInt:
		return v.Int
	case value.KindFloat:
		return v.Float
	case value.KindString:
		return v.Str
	}
	return nil
}

// eface is the layout the result conversion assumes of an empty interface:
// a type word, then a data word pointing at the value.
type eface struct {
	typ, data unsafe.Pointer
}

// TestNativeCells: result cells, which share typed chunks instead of each
// being boxed alone, are indistinguishable from plainly boxed values —
// through Query, Stmt.Run and Rows.Next, whether the rows come from a scan
// or a sort's read-back, after a collection and after later statements
// have run — to ==, reflect.DeepEqual, fmt.Sprint, encoding/json and map
// lookups; and each cell has the layout the conversion builds: the
// reference's type word, and a data word pointing at the value.
func TestNativeCells(t *testing.T) {
	if unsafe.Sizeof(any(nil)) != unsafe.Sizeof(eface{}) {
		t.Fatalf("an interface is %d bytes, want two words", unsafe.Sizeof(any(nil)))
	}
	ints := []int64{-1, 0, 1, 255, 256, 1 << 40, math.MaxInt64, math.MinInt64 + 1}
	floats := []float64{0.5, -2.25, 3.14159, -1e300, 12345.678, -0.001, 1e-7, 7}
	strs := []string{"", "a", "héllo wörld", "日本語テキスト", "O'Brien", strings.Repeat("x", 300), "🙂", " "}
	db := openDB(systemr.Config{BufferPages: 16})
	db.MustExec("CREATE TABLE CELLS (K INTEGER, I INTEGER, F FLOAT, S VARCHAR)")
	var want [][]value.Value
	for k := range ints {
		row := []value.Value{value.NewInt(ints[k]), value.NewFloat(floats[k]), value.NewString(strs[k])}
		if k == 3 {
			row = []value.Value{value.Null(), value.Null(), value.Null()}
		}
		want = append(want, row)
		db.MustExec(fmt.Sprintf("INSERT INTO CELLS VALUES (%d, %s, %s, %s)", k, row[0].SQL(), row[1].SQL(), row[2].SQL()))
	}
	// math.MinInt64 has no literal (its negation overflows): the last row,
	// MinInt64+1, reaches it by arithmetic, and its new version stays last.
	db.MustExec("UPDATE CELLS SET I = I - 1 WHERE K = 7")
	want[7][0] = value.NewInt(math.MinInt64)

	const scan = "SELECT I, F, S FROM CELLS"
	const sorted = "SELECT I, F, S FROM CELLS ORDER BY K DESC"
	reversed := make([][]value.Value, len(want))
	for i, r := range want {
		reversed[len(want)-1-i] = r
	}
	type got struct {
		name string
		rows [][]any
		want [][]value.Value
	}
	var all []got
	for _, c := range []struct {
		text string
		want [][]value.Value
	}{{scan, want}, {sorted, reversed}} {
		res, err := db.Query(c.text)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, got{"Query " + c.text, res.Rows, c.want})
		st, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = st.Run(); err != nil {
			t.Fatal(err)
		}
		all = append(all, got{"Stmt.Run " + c.text, res.Rows, c.want})
		rs, err := st.Open()
		if err != nil {
			t.Fatal(err)
		}
		var streamed [][]any
		for {
			row, ok, err := rs.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			streamed = append(streamed, row)
		}
		all = append(all, got{"Rows.Next " + c.text, streamed, c.want})
	}
	check := func(when string) {
		t.Helper()
		for _, g := range all {
			if len(g.rows) != len(g.want) {
				t.Fatalf("%s %s: %d rows, want %d", g.name, when, len(g.rows), len(g.want))
			}
			for i, row := range g.rows {
				ref := make([]any, len(g.want[i]))
				for j, v := range g.want[i] {
					ref[j] = plainNative(v)
				}
				if !reflect.DeepEqual(row, ref) {
					t.Fatalf("%s %s: row %d = %#v, want %#v", g.name, when, i, row, ref)
				}
				for j, cell := range row {
					sameCell(t, fmt.Sprintf("%s %s: row %d cell %d", g.name, when, i, j), cell, ref[j])
				}
			}
		}
	}
	check("as returned")
	runtime.GC()
	check("after a collection")
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			db.MustExec(fmt.Sprintf("INSERT INTO CELLS VALUES (%d, %d, %d.5, 'later %d')", 100+i, 1000+i, i, i))
			db.MustExec(fmt.Sprintf("DELETE FROM CELLS WHERE K = %d", 100+i))
			continue
		}
		if _, err := db.Query(sorted); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	check("after 100 later statements")
}

// sameCell fails unless cell and ref, its plainly boxed reference, are the
// same to every way a caller may read a cell, and cell has the layout the
// result conversion builds.
func sameCell(t *testing.T, at string, cell, ref any) {
	t.Helper()
	if cell != ref || !reflect.DeepEqual(cell, ref) {
		t.Fatalf("%s: %#v, want %#v", at, cell, ref)
	}
	if reflect.TypeOf(cell) != reflect.TypeOf(ref) {
		t.Fatalf("%s: type %T, want %T", at, cell, ref)
	}
	if a, b := fmt.Sprint(cell), fmt.Sprint(ref); a != b {
		t.Fatalf("%s: fmt.Sprint %q, want %q", at, a, b)
	}
	a, aerr := json.Marshal(cell)
	b, berr := json.Marshal(ref)
	if string(a) != string(b) || (aerr == nil) != (berr == nil) {
		t.Fatalf("%s: json %s (%v), want %s (%v)", at, a, aerr, b, berr)
	}
	if m := map[any]bool{ref: true}; !m[cell] {
		t.Fatalf("%s: map lookup by the cell misses its reference", at)
	}
	if ref == nil {
		return
	}
	e, r := (*eface)(unsafe.Pointer(&cell)), (*eface)(unsafe.Pointer(&ref))
	if e.typ != r.typ {
		t.Fatalf("%s: type word %p, want %p", at, e.typ, r.typ)
	}
	switch ref := ref.(type) {
	case int64:
		if *(*int64)(e.data) != ref {
			t.Fatalf("%s: data word reads %d, want %d", at, *(*int64)(e.data), ref)
		}
	case float64:
		if *(*float64)(e.data) != ref {
			t.Fatalf("%s: data word reads %v, want %v", at, *(*float64)(e.data), ref)
		}
	case string:
		if *(*string)(e.data) != ref {
			t.Fatalf("%s: data word reads %q, want %q", at, *(*string)(e.data), ref)
		}
	}
}
