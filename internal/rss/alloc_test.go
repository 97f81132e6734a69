//go:build !race

package rss

import (
	"testing"

	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
)

// TestInsertAllocs bounds what inserting a row into a table with a unique
// and a non-unique index allocates: the stored record, and one array the
// two index keys are carved from, which the unique check reads and the
// trees keep. The check's B-tree iterator stays on the stack, and page and
// node growth amortize to nothing over many rows. A key built for the
// check, another for each tree, a clone of each in its tree and a heap
// iterator made seven.
func TestInsertAllocs(t *testing.T) {
	const warm, runs = 2000, 2000
	e := newEnv(t, 16)
	tab := e.newEmp(t, 0)
	if _, err := e.cat.CreateIndex("EMP_SAL", "EMP", []string{"SAL"}, true, false, testutil.HeapRows(e.disk)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cat.CreateIndex("EMP_DNO", "EMP", []string{"DNO"}, false, false, testutil.HeapRows(e.disk)); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, warm+runs+1)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 10)), value.NewInt(int64(i)), value.NewString("E")}
	}
	next := 0
	insert := func() {
		if _, err := Insert(tab, rows[next], storage.FrozenXID, storage.NoPrevTID, e.disk); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range warm {
		insert()
	}
	allocs := testing.AllocsPerRun(runs, insert)
	if max := 2.0; allocs > max {
		t.Errorf("%.0f allocations per inserted row, want at most %.0f", allocs, max)
	}
	if n := tab.Indexes[0].Tree.Len(); n != len(rows) {
		t.Fatalf("unique index holds %d entries, want %d", n, len(rows))
	}
}
