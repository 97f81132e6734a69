package systemr_test

import (
	"context"
	"testing"

	"systemr"
	"systemr/internal/rss"
	"systemr/internal/testutil"
	"systemr/internal/workload"
)

func TestCursorStreaming(t *testing.T) {
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare("SELECT NAME, SAL FROM EMP WHERE DNO = 3 ORDER BY SAL")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns()) != 2 {
		t.Fatalf("columns: %v", rows.Columns())
	}
	count := 0
	prev := -1.0
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
		sal := row[1].(float64)
		if sal < prev {
			t.Fatal("cursor rows out of order")
		}
		prev = sal
	}
	if count != 10 {
		t.Fatalf("streamed %d rows", count)
	}
	rows.Close() // idempotent after drain

	// Early close releases locks: a writer must be able to proceed.
	rows, err = stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := rows.Next(); !ok {
		t.Fatal("expected at least one row")
	}
	rows.Close()
	if _, err := db.Exec("INSERT INTO EMP VALUES ('W', 3, 5, 1.0)"); err != nil {
		t.Fatalf("write after cursor close: %v", err)
	}

	// Re-open still works (plans are reusable).
	rows, err = stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 11 {
		t.Fatalf("after insert: %d rows", n)
	}
}

// TestCursorMidStreamClose closes OpenContext cursors partway through their
// result streams — one streaming through a nested-loop join with live RSS
// scans, one mid merge-join over sorted temporary lists — and checks the
// lifecycle invariants: every scan and lock is released, and LastStats
// reports the rows streamed up to the close.
func TestCursorMidStreamClose(t *testing.T) {
	testutil.AssertNoLeaks(t)
	scenarios := []struct {
		name   string
		engine systemr.Config
		query  string
	}{
		// Default engine: nested-loop join, so the outer scan is a live RSS
		// scan at the moment of the close.
		{"nested-loop", systemr.Config{},
			"SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO"},
		// Merge-only engine with ORDER BY: the close lands mid merge-join
		// and mid sort-result, releasing temporary lists.
		{"merge-join-sort", systemr.Config{Joins: systemr.MergeOnly},
			"SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO ORDER BY E.NAME"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := workload.NewEmpDB(workload.EmpConfig{Emps: 300, Depts: 30, Jobs: 4, Engine: sc.engine})
			stmt, err := db.Prepare(sc.query)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := stmt.OpenContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			const streamed = 7
			for i := 0; i < streamed; i++ {
				if _, ok, err := rows.Next(); err != nil || !ok {
					t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
				}
			}
			if err := rows.Close(); err != nil {
				t.Fatalf("mid-stream close: %v", err)
			}
			if n := rss.OpenScans(); n != 0 {
				t.Fatalf("%d RSI scans still open after mid-stream close", n)
			}
			if n := db.Locks().Outstanding(); n != 0 {
				t.Fatalf("%d locks still held after mid-stream close", n)
			}
			st := db.LastStats()
			if st.Rows != streamed {
				t.Fatalf("LastStats.Rows = %d, want %d (rows streamed before close)", st.Rows, streamed)
			}
			if st.RSICalls == 0 {
				t.Fatalf("LastStats missing measured work: %+v", st)
			}
			// The database is fully usable afterwards, including writes.
			if _, err := db.Exec("INSERT INTO EMP VALUES ('X', 1, 1, 1.0, 0, 9999)"); err != nil {
				t.Fatalf("write after mid-stream close: %v", err)
			}
		})
	}
}

// A second Close is a no-op: it returns nil and must not republish the
// cursor's statistics over LastStats published by statements run in
// between.
func TestRowsCloseIdempotent(t *testing.T) {
	testutil.AssertNoLeaks(t)
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE DNO = 3")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	cursorStats := db.LastStats()

	// Run another statement, then re-close the drained cursor.
	if _, err := db.Query("SELECT NAME, SAL, DNO, JOB FROM EMP"); err != nil {
		t.Fatal(err)
	}
	fullScan := db.LastStats()
	if fullScan == cursorStats {
		t.Fatalf("full scan stats %+v indistinguishable from cursor stats", fullScan)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if got := db.LastStats(); got != fullScan {
		t.Fatalf("second Close republished stats: got %+v, want %+v", got, fullScan)
	}

	// Locks released exactly once: a writer proceeds, and the scan-leak
	// accounting registered above stays balanced.
	if _, err := db.Exec("UPDATE EMP SET SAL = SAL WHERE DNO = 3"); err != nil {
		t.Fatalf("write after double close: %v", err)
	}
}
