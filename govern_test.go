package systemr_test

// End-to-end tests of the statement execution governor: cancellation,
// timeouts, resource budgets, panic containment, and storage fault
// injection. The invariant throughout: an aborted statement — however it
// aborts — releases every lock and scan, and the very next statement runs
// normally.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"systemr"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/workload"
)

// heavyQuery is an unindexed self-join over 2000 employees: ~4M tuple
// examinations, far more work than any cancellation delay used below.
const heavyQuery = "SELECT COUNT(*) FROM EMP E1, EMP E2 WHERE E1.SAL < E2.SAL"

func newHeavyDB(t testing.TB, cfg workload.EmpConfig) *systemr.DB {
	t.Helper()
	if cfg.Emps == 0 {
		cfg = workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10}
	}
	db := openEmpDB(cfg)
	testutil.AssertNoLeaks(t, db.Pool())
	return db
}

// assertUsable runs a follow-up statement after an abort.
func assertUsable(t testing.TB, db *systemr.DB, wantEmps int64) {
	t.Helper()
	res, err := db.Query("SELECT COUNT(*) FROM EMP")
	if err != nil {
		t.Fatalf("follow-up statement after abort: %v", err)
	}
	if got := res.Rows[0][0].(int64); got != wantEmps {
		t.Fatalf("follow-up count = %d, want %d", got, wantEmps)
	}
}

func TestQueryContextCancellationMidScan(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := db.QueryContext(ctx, heavyQuery)
	if !errors.Is(err, systemr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	var se *systemr.StatementError
	if !errors.As(err, &se) {
		t.Fatalf("canceled query error is %T, want *StatementError", err)
	}
	// The statement did real work before dying, and the partial cost is
	// reported both on the error and via LastStats.
	if se.Stats.RSICalls == 0 {
		t.Fatalf("partial stats empty: %+v", se.Stats)
	}
	if db.LastStats().RSICalls != se.Stats.RSICalls {
		t.Fatalf("LastStats %+v != error stats %+v", db.LastStats(), se.Stats)
	}
	assertClean(t, db)
	assertUsable(t, db, 2000)
}

func TestStatementTimeout(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	// No way to set StatementTimeout after Open, so build a second engine
	// with the knob. The timeout bounds every statement of this engine,
	// including the ~2000 setup INSERTs and the follow-up COUNT(*), which
	// take about a millisecond each but can stall past a few milliseconds
	// on a loaded machine. 200ms leaves those a wide margin while the
	// self-join (about 2s on a laptop-class x86 core, longer under -race)
	// still runs an order of magnitude past it.
	db = openEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10,
		Engine: systemr.Config{StatementTimeout: 200 * time.Millisecond}})
	_, err := db.Query(heavyQuery)
	if !errors.Is(err, systemr.ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query: got %v, want ErrBudgetExceeded wrapping DeadlineExceeded", err)
	}
	assertClean(t, db)
	assertUsable(t, db, 2000)
}

func TestMaxRowsScanned(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 10, Jobs: 4,
		Engine: systemr.Config{MaxRowsScanned: 100}})
	testutil.AssertNoLeaks(t, db.Pool())
	_, err := db.Query("SELECT NAME FROM EMP")
	if !errors.Is(err, systemr.ErrBudgetExceeded) {
		t.Fatalf("full scan over row budget: got %v, want ErrBudgetExceeded", err)
	}
	var se *systemr.StatementError
	if !errors.As(err, &se) || se.Stats.RSICalls == 0 {
		t.Fatalf("row budget abort: error %v lacks partial stats", err)
	}
	assertClean(t, db)
	// A DELETE or UPDATE locates its targets through the same governed scan:
	// its abort carries the partial stats it published as LastStats.
	for _, stmt := range []string{"DELETE FROM EMP WHERE SAL > 0", "UPDATE EMP SET SAL = SAL + 1"} {
		_, err := db.Exec(stmt)
		if !errors.Is(err, systemr.ErrBudgetExceeded) || !errors.As(err, &se) {
			t.Fatalf("%s over row budget: got %v, want a *StatementError wrapping ErrBudgetExceeded", stmt, err)
		}
		if se.Stats != db.LastStats() || se.Stats.RSICalls == 0 {
			t.Fatalf("%s: abort stats %+v, want LastStats %+v with RSICalls > 0", stmt, se.Stats, db.LastStats())
		}
		assertClean(t, db)
	}
	// A statement under the budget still works.
	if _, err := db.Query("SELECT DNAME FROM DEPT"); err != nil {
		t.Fatalf("small query under row budget: %v", err)
	}
}

func TestMaxPageFetches(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 10, Jobs: 4,
		Engine: systemr.Config{MaxPageFetches: 2}})
	testutil.AssertNoLeaks(t, db.Pool())
	db.Pool().Flush() // cold buffer: every page access is a real fetch
	_, err := db.Query("SELECT NAME FROM EMP")
	if !errors.Is(err, systemr.ErrBudgetExceeded) {
		t.Fatalf("scan over fetch budget: got %v, want ErrBudgetExceeded", err)
	}
	var se *systemr.StatementError
	if !errors.As(err, &se) || se.Stats.PageFetches == 0 {
		t.Fatalf("fetch budget abort: error %v lacks partial stats", err)
	}
	assertClean(t, db)
}

func TestPreparedStatementGoverned(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	stmt, err := db.Prepare(heavyQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := stmt.RunContext(ctx); !errors.Is(err, systemr.ErrBudgetExceeded) {
		t.Fatalf("prepared run past deadline: got %v, want ErrBudgetExceeded", err)
	}
	assertClean(t, db)
	// The compiled plan is not poisoned by the abort.
	if _, err := stmt.RunContext(context.Background()); err != nil {
		t.Fatalf("prepared re-run after abort: %v", err)
	}
	assertClean(t, db)
}

func TestCursorObservesCancellation(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	stmt, err := db.Prepare("SELECT E1.NAME FROM EMP E1, EMP E2 WHERE E1.SAL < E2.SAL")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := stmt.OpenContext(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Stream a few rows first, so the abort has partial work to report.
	for i := 0; i < 10; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			cancel()
			t.Fatalf("row %d before cancel: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	var abort error
	for i := 0; i < 100000; i++ {
		_, ok, err := rows.Next()
		if err != nil {
			if !errors.Is(err, systemr.ErrCanceled) {
				t.Fatalf("cursor error: %v", err)
			}
			abort = err
			break
		}
		if !ok {
			break
		}
	}
	if abort == nil {
		t.Fatal("cursor drained without observing cancellation")
	}
	// The aborted cursor's error carries the partial stats its close just
	// published as LastStats.
	var se *systemr.StatementError
	if !errors.As(abort, &se) {
		t.Fatalf("cursor abort %v is not a *StatementError", abort)
	}
	if se.Stats != db.LastStats() || se.Stats.RSICalls == 0 {
		t.Fatalf("abort stats %+v, want LastStats %+v with RSICalls > 0", se.Stats, db.LastStats())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("cursor close after abort: %v", err)
	}
	assertClean(t, db)
	assertUsable(t, db, 2000)
}

// panicInjector simulates an internal storage bug: the Nth page fetch panics
// inside the buffer pool, deep under the executor.
type panicInjector struct{ n int64 }

func (p panicInjector) PageFetch(n int64, id storage.PageID) error {
	if n == p.n {
		panic(fmt.Sprintf("injected panic on page fetch %d (page %v)", n, id))
	}
	return nil
}

func TestPanicContainment(t *testing.T) {
	const query = "SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO ORDER BY E.NAME"
	// The same join entering the statement lifecycle three ways: ad hoc, as
	// a prepared run, and as a cursor drained row by row. The sort drains
	// its input at Open, so the cursor's panicking fetch comes later, inside
	// a Next.
	inputs := []struct {
		name  string
		fetch int64
		run   func(db *systemr.DB, stmt *systemr.Stmt) error
	}{
		{"query", 3, func(db *systemr.DB, _ *systemr.Stmt) error {
			_, err := db.Query(query)
			return err
		}},
		{"prepared_run", 3, func(_ *systemr.DB, stmt *systemr.Stmt) error {
			_, err := stmt.Run()
			return err
		}},
		{"cursor", 8, func(_ *systemr.DB, stmt *systemr.Stmt) error {
			rows, err := stmt.Open()
			if err != nil {
				return fmt.Errorf("Open failed before any Next: %v", err)
			}
			for {
				_, ok, err := rows.Next()
				if err != nil || !ok {
					return err
				}
			}
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			db := newEmpDeptJobDB(t)
			stmt, err := db.Prepare(query)
			if err != nil {
				t.Fatal(err)
			}
			db.Pool().SetFaultInjector(panicInjector{n: in.fetch})
			db.Pool().Flush()
			err = in.run(db, stmt)
			var pe *systemr.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("panicking fetch: got %v, want *PanicError", err)
			}
			if len(pe.Stack) == 0 || pe.Value == nil {
				t.Fatalf("PanicError missing diagnostics: %+v", pe)
			}
			assertClean(t, db)
			db.Pool().SetFaultInjector(nil)
			assertUsable(t, db, 300)
		})
	}
}

// TestFaultInjectionSweep fails every page fetch position of a three-table
// join with a sort, one run at a time: run k fails fetch k. Every run must
// surface ErrInjectedFault (never a panic, never a wrong result) and leave
// the engine clean; the sweep ends when a run completes without reaching a
// faulted fetch.
func TestFaultInjectionSweep(t *testing.T) {
	db := newEmpDeptJobDB(t)
	const query = "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB ORDER BY D.DNAME"

	// Baseline: the query works and we know its answer size.
	want, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	faulted := 0
	for n := int64(1); ; n++ {
		if n > 100000 {
			t.Fatal("sweep did not terminate: query never completed")
		}
		db.Pool().SetFaultInjector(storage.FailNth{N: n})
		db.Pool().Flush()
		res, err := db.QueryContext(context.Background(), query)
		if err == nil {
			// Fetch n was never reached: the whole query ran clean. Done.
			if len(res.Rows) != len(want.Rows) {
				t.Fatalf("clean run under injector returned %d rows, want %d",
					len(res.Rows), len(want.Rows))
			}
			break
		}
		if !errors.Is(err, systemr.ErrInjectedFault) {
			t.Fatalf("fault at fetch %d: got %v, want ErrInjectedFault", n, err)
		}
		faulted++
		assertClean(t, db)
	}
	if faulted == 0 {
		t.Fatal("sweep injected no faults — query made no page fetches?")
	}
	t.Logf("fault sweep: %d fetch positions failed and recovered", faulted)

	db.Pool().SetFaultInjector(nil)
	assertUsable(t, db, 300)
}

// TestExplainAnalyzeGoverned checks that EXPLAIN ANALYZE — which really
// executes the statement — runs under the same governor plumbing as a plain
// query: resource budgets abort it, and the abort leaves the database clean.
func TestExplainAnalyzeGoverned(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{
		Emps: 2000, Depts: 50, Jobs: 10,
		Engine: systemr.Config{MaxRowsScanned: 100},
	})
	_, err := db.ExplainAnalyze(heavyQuery)
	if !errors.Is(err, systemr.ErrBudgetExceeded) {
		t.Fatalf("EXPLAIN ANALYZE over budget: got %v, want ErrBudgetExceeded", err)
	}
	assertClean(t, db)
	// Plain EXPLAIN only plans, so it stays under the row budget.
	if _, err := db.Explain(heavyQuery); err != nil {
		t.Fatalf("plain EXPLAIN after abort: %v", err)
	}
	// A statement under the budget still works.
	if _, err := db.Query("SELECT DNAME FROM DEPT"); err != nil {
		t.Fatalf("small query under row budget: %v", err)
	}
}

// TestExplainCanceledContext checks that even plain EXPLAIN — no execution at
// all — observes the statement context: a pre-canceled context fails with
// ErrCanceled instead of planning.
func TestExplainCanceledContext(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "EXPLAIN "+heavyQuery); !errors.Is(err, systemr.ErrCanceled) {
		t.Fatalf("EXPLAIN with canceled context: got %v, want ErrCanceled", err)
	}
	if _, err := db.ExplainAnalyzeContext(ctx, heavyQuery); !errors.Is(err, systemr.ErrCanceled) {
		t.Fatalf("EXPLAIN ANALYZE with canceled context: got %v, want ErrCanceled", err)
	}
	assertClean(t, db)
	assertUsable(t, db, 2000)
}

// An ORDER BY over the row budget aborts inside the sort (run generation
// and spill reads are governed loops, not just the operator boundary) and
// still leaves no scans or locks behind.
func TestMaxRowsScannedDuringSort(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 300, Depts: 10, Jobs: 4,
		Engine: systemr.Config{MaxRowsScanned: 100}})
	testutil.AssertNoLeaks(t, db.Pool())
	_, err := db.Query("SELECT NAME, SAL FROM EMP ORDER BY SAL")
	if !errors.Is(err, systemr.ErrBudgetExceeded) {
		t.Fatalf("sorted scan over row budget: got %v, want ErrBudgetExceeded", err)
	}
	assertClean(t, db)
	// The same query under a sufficient budget completes.
	relaxed := openEmpDB(workload.EmpConfig{Emps: 50, Depts: 10, Jobs: 4,
		Engine: systemr.Config{MaxRowsScanned: 10000}})
	if _, err := relaxed.Query("SELECT NAME, SAL FROM EMP ORDER BY SAL"); err != nil {
		t.Fatalf("sorted scan under budget: %v", err)
	}
	assertClean(t, relaxed)
}

// A canceled context aborts an ORDER BY whose input scan has already
// drained: the only remaining work is inside the sorter's merge and
// delivery loops, which must observe the governor on their own.
func TestCancellationDuringSortDelivery(t *testing.T) {
	db := newHeavyDB(t, workload.EmpConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, "SELECT NAME, SAL FROM EMP ORDER BY SAL")
	if !errors.Is(err, systemr.ErrCanceled) {
		t.Fatalf("sorted scan under canceled context: got %v, want ErrCanceled", err)
	}
	assertClean(t, db)
}
