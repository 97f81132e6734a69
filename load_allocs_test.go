//go:build !race

package systemr_test

// Allocation bounds for loading a table (the race detector changes
// allocation counts, so these run only without it). A multi-row INSERT of
// literals lexes its text once and reads its values straight into rows
// carved from one array, which the insert coerces in place and the undo
// log keeps; CREATE INDEX carves its keys from one array and hands the
// sorted entries to the tree; UPDATE STATISTICS fills one presized array
// per table. Each bound is half the bytes the engine allocated before.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"systemr"
)

// bytesPerRun returns the bytes f allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// fourIntRows spells rows [from, to) of a four-integer table shaped like
// analytic_skew's EVENTS as a VALUES list.
func fourIntRows(from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		if i > from {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d)", i, i*7919%1000, i%100, i*13)
	}
	return b.String()
}

// TestBulkInsertBytes: one 500-row INSERT of literals into a four-integer
// table allocates at most 240,000 bytes, half of the 484,712 it took when
// the text was lexed twice, every value was an AST node, and the insert
// copied each row to coerce it (about 169,000 now).
func TestBulkInsertBytes(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER, C INTEGER, D INTEGER)")
	text := "INSERT INTO T VALUES " + fourIntRows(0, 500)
	db.MustExec(text)
	if got, max := bytesPerRun(10, func() { db.MustExec(text) }), uint64(240_000); got > max {
		t.Errorf("a 500-row INSERT allocated %d bytes, want at most %d", got, max)
	}
}

// TestIndexAndStatisticsBytes: CREATE INDEX and then UPDATE STATISTICS on
// a 20,000-row four-integer table allocate at most 11,000,000 bytes, half
// of the 22,052,013 they took when every key and every column grew its own
// slice by appending and BulkLoad cloned the entries (about 4.8 MB now).
func TestIndexAndStatisticsBytes(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER, C INTEGER, D INTEGER)")
	for i := 0; i < 20_000; i += 500 {
		db.MustExec("INSERT INTO T VALUES " + fourIntRows(i, i+500))
	}
	got := bytesPerRun(3, func() {
		db.MustExec("CREATE INDEX T_B ON T (B)")
		db.MustExec("UPDATE STATISTICS T")
		db.MustExec("DROP INDEX T_B")
	})
	if max := uint64(11_000_000); got > max {
		t.Errorf("CREATE INDEX and UPDATE STATISTICS allocated %d bytes, want at most %d", got, max)
	}
}
