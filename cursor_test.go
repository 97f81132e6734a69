package systemr_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"systemr"

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
	scenarios := []struct {
		name  string
		query string
		op    string // the operator the close must land in
	}{
		// A nested-loop join, so the outer scan is a live RSS scan at the
		// moment of the close.
		{"nested-loop",
			"SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO", "NLJOIN"},
		// ORDER BY on the join column makes the merge join's order
		// interesting: the close lands mid merge-join and mid sort-result,
		// releasing temporary lists.
		{"merge-join-sort",
			"SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
				"WHERE E.DNO = D.DNO AND E.JOB = J.JOB ORDER BY E.JOB", "MERGEJOIN"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 30, Jobs: 4})
			testutil.AssertNoLeaks(t, db.Pool())
			if pl, err := db.Explain(sc.query); err != nil || !strings.Contains(pl, sc.op) {
				t.Fatalf("plan (err %v) lacks %s:\n%s", err, sc.op, pl)
			}
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
			assertClean(t, db)
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

// TestEveryEntryPointMeasuresTheSame: every entry point runs a plan through
// the executor's one driver, so one query with an IN subquery returns the
// same rows and publishes the same LastStats — page fetches from a flushed
// pool, temp pages written, RSI calls, subquery evaluations and rows —
// through DB.Query,
// Txn.Query, Conn.Query, Stmt.Run, a drained Stmt.Open cursor and EXPLAIN
// ANALYZE, whose statement line reports the same fetches and RSI calls. A
// cursor closed part way publishes exactly the rows it streamed.
func TestEveryEntryPointMeasuresTheSame(t *testing.T) {
	const query = "SELECT NAME, SAL FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER') ORDER BY SAL"
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	cursor := func() (*systemr.Result, error) {
		rows, err := stmt.Open()
		if err != nil {
			return nil, err
		}
		res := &systemr.Result{Columns: rows.Columns()}
		for {
			row, ok, err := rows.Next()
			if err != nil || !ok {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	var explained string
	entries := []struct {
		name string
		run  func() (*systemr.Result, error)
	}{
		{"DB.Query", func() (*systemr.Result, error) { return db.Query(query) }},
		{"Txn.Query", func() (*systemr.Result, error) {
			x := db.Begin()
			defer func() { _ = x.Commit() }()
			return x.Query(query)
		}},
		{"Conn.Query", func() (*systemr.Result, error) { return db.Conn().Query(query) }},
		{"Stmt.Run", func() (*systemr.Result, error) { return stmt.Run() }},
		{"Stmt.Open", cursor},
		{"EXPLAIN ANALYZE", func() (*systemr.Result, error) {
			res, err := db.Exec("EXPLAIN ANALYZE " + query)
			if err == nil {
				explained = res.Plan
			}
			return nil, err
		}},
	}
	var want []systemr.ExecStats
	var wantRows [][]any
	for _, e := range entries {
		db.Pool().Flush()
		res, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		s := db.LastStats()
		got := systemr.ExecStats{PageFetches: s.PageFetches, PagesWritten: s.PagesWritten,
			RSICalls: s.RSICalls, SubqueryEvals: s.SubqueryEvals, Rows: s.Rows}
		if want == nil {
			want, wantRows = []systemr.ExecStats{got}, res.Rows
			if got.Rows == 0 || got.SubqueryEvals != 1 || got.PageFetches == 0 {
				t.Fatalf("%s: stats %+v, want rows, one subquery evaluation and fetches", e.name, got)
			}
			continue
		}
		if got != want[0] {
			t.Errorf("%s: stats %+v, want %+v as through %s", e.name, got, want[0], entries[0].name)
		}
		if res != nil && !reflect.DeepEqual(res.Rows, wantRows) {
			t.Errorf("%s: %d rows differ from %s's %d", e.name, len(res.Rows), entries[0].name, len(wantRows))
		}
	}
	line := fmt.Sprintf("statement: fetches=%d writes=%d rsi=%d ", want[0].PageFetches, want[0].PagesWritten, want[0].RSICalls)
	if !strings.Contains(explained, line) {
		t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", line, explained)
	}

	rows, err := stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok, err := rows.Next(); !ok || err != nil {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if s := db.LastStats(); s.Rows != 2 || s.SubqueryEvals != 1 {
		t.Fatalf("partly drained cursor: Rows=%d SubqueryEvals=%d, want 2 and 1", s.Rows, s.SubqueryEvals)
	}
}
