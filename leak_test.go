package systemr_test

// The leak ledger. Three gauges count what a database's statements acquire
// and must give back on every path out of them: open RSI scans, granted
// table locks, and pinned snapshot registrations. Every public entry point
// runs below under an injected fault at each page-fetch position it
// reaches — first a failed fetch, then a panicking one — and once clean,
// and after every run all three gauges must read 0. A leak is caught at the statement
// that leaked it, on the path that leaked it.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/storage"
)

// ledger names the leak ledger's gauges.
var ledger = []string{"systemr_open_scans", "systemr_locks_outstanding", "systemr_snapshots_pinned"}

// assertClean checks the leak ledger between statements: no scan open, no
// lock granted, no snapshot pinned.
func assertClean(t testing.TB, db *systemr.DB) {
	t.Helper()
	m := sampleMap(db)
	for _, name := range ledger {
		s, ok := m[name]
		if !ok {
			t.Fatalf("metric %s is not registered", name)
		}
		if s.Value != 0 {
			t.Fatalf("%s = %g between statements, want 0", name, s.Value)
		}
	}
}

// ledgerJoin plans as a sort over a hash join over a nested-loop join. At
// Open the sort drains its input and the hash join builds from a scan it
// opened, so a fault there leaves a scan open for the root's Close; a fault
// later leaves the nested loop's scans open mid-stream.
const ledgerJoin = "SELECT E.NAME, D.DNAME, J.TITLE FROM EMP E, DEPT D, JOB J " +
	"WHERE E.DNO = D.DNO AND E.JOB = J.JOB ORDER BY D.DNAME"

// entryPoints are the engine's public ways in, each run against a database
// newEmpDeptJobDB built. run returns the entry point's error, or an error
// of its own when the outcome is wrong.
var entryPoints = []struct {
	name string
	run  func(db *systemr.DB) error
}{
	{"query", func(db *systemr.DB) error {
		_, err := db.Query(ledgerJoin)
		return err
	}},
	{"stmt_run", func(db *systemr.DB) error {
		stmt, err := db.Prepare(ledgerJoin)
		if err != nil {
			return err
		}
		_, err = stmt.Run()
		return err
	}},
	{"stmt_open_drained", func(db *systemr.DB) error {
		rows, err := openLedgerJoin(db)
		if err != nil {
			return err
		}
		for {
			_, ok, err := rows.Next()
			if err != nil || !ok {
				return err
			}
		}
	}},
	{"stmt_open_closed_early", func(db *systemr.DB) error {
		rows, err := openLedgerJoin(db)
		if err != nil {
			return err
		}
		if _, _, err := rows.Next(); err != nil {
			return err
		}
		return rows.Close()
	}},
	{"update", func(db *systemr.DB) error {
		_, err := db.Exec("UPDATE EMP SET SAL = SAL + 1 WHERE DNO = 2")
		return err
	}},
	{"delete", func(db *systemr.DB) error {
		_, err := db.Exec("DELETE FROM EMP WHERE JOB = 9")
		return err
	}},
	{"update_cached", func(db *systemr.DB) error {
		// The second UPDATE runs the plan the first one's family cached.
		for _, dno := range []int{3, 4} {
			if _, err := db.Exec(fmt.Sprintf("UPDATE EMP SET SAL = SAL + 1 WHERE DNO = %d", dno)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"stmt_run_update", func(db *systemr.DB) error {
		stmt, err := db.Prepare("UPDATE EMP SET SAL = SAL * ? WHERE JOB = ?")
		if err != nil {
			return err
		}
		_, err = stmt.Run(1.5, 6)
		return err
	}},
	{"stmt_run_delete", func(db *systemr.DB) error {
		stmt, err := db.Prepare("DELETE FROM EMP WHERE DNO = ? AND JOB = ?")
		if err != nil {
			return err
		}
		_, err = stmt.Run(5, 12)
		return err
	}},
	{"explain_analyze", func(db *systemr.DB) error {
		_, err := db.ExplainAnalyze(ledgerJoin)
		return err
	}},
	{"dump", func(db *systemr.DB) error { return db.DumpSQL(io.Discard) }},
	{"create_index", func(db *systemr.DB) error {
		// Dropped again, so every run builds the index afresh.
		if _, err := db.Exec("CREATE INDEX EMP_SAL ON EMP (SAL)"); err != nil {
			return err
		}
		_, err := db.Exec("DROP INDEX EMP_SAL")
		return err
	}},
	{"update_statistics", func(db *systemr.DB) error {
		_, err := db.Exec("UPDATE STATISTICS")
		return err
	}},
	{"run_planned", func(db *systemr.DB) error {
		q, err := db.PlanSelect(ledgerJoin)
		if err != nil {
			return err
		}
		_, _, err = db.RunPlanned(q)
		return err
	}},
	{"subquery_query", func(db *systemr.DB) error {
		_, err := db.Query(ledgerCorrelated)
		return err
	}},
	{"subquery_cursor_closed_early", func(db *systemr.DB) error {
		stmt, err := db.Prepare(ledgerCorrelated)
		if err != nil {
			return err
		}
		rows, err := stmt.Open()
		if err != nil {
			return err
		}
		if _, _, err := rows.Next(); err != nil {
			return err
		}
		return rows.Close()
	}},
	{"subquery_delete", func(db *systemr.DB) error {
		_, err := db.Exec("DELETE FROM EMP WHERE SAL > " +
			"(SELECT AVG(E2.SAL) FROM EMP E2 WHERE E2.DNO = EMP.DNO) AND JOB = 5")
		return err
	}},
	{"prepare_sem_error", func(db *systemr.DB) error {
		if _, err := db.Prepare("SELECT E.NOSUCH FROM EMP E"); err == nil {
			return errors.New("Prepare accepted a column EMP does not have")
		}
		return nil
	}},
}

// ledgerCorrelated evaluates its subquery block once per employee, by
// re-opening the block's index scan on EMP_DNO, so a fault can strike in
// the middle of any evaluation.
const ledgerCorrelated = "SELECT NAME, DNO FROM EMP E WHERE SAL > " +
	"(SELECT AVG(E2.SAL) FROM EMP E2 WHERE E2.DNO = E.DNO)"

func openLedgerJoin(db *systemr.DB) (*systemr.Rows, error) {
	stmt, err := db.Prepare(ledgerJoin)
	if err != nil {
		return nil, err
	}
	return stmt.Open()
}

// faultModes are the two ways a fetch fails: an I/O error the scan returns,
// and a panic deep in the buffer pool that the engine contains.
var faultModes = []struct {
	name   string
	inject func(n int64) storage.FaultInjector
	is     func(err error) bool
}{
	{"error", func(n int64) storage.FaultInjector { return storage.FailNth{N: n} },
		func(err error) bool { return errors.Is(err, systemr.ErrInjectedFault) }},
	{"panic", func(n int64) storage.FaultInjector { return panicInjector{n: n} },
		func(err error) bool {
			var pe *systemr.PanicError
			return errors.As(err, &pe)
		}},
}

// catalogState renders what a failed statement must leave as it was: the
// catalog version, and every table's statistics and indexes (the
// statistics and index trees by identity, as a refresh or build replaces
// them wholesale).
func catalogState(db *systemr.DB) string {
	cat := db.Catalog()
	tables := cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", cat.Version())
	for _, t := range tables {
		fmt.Fprintf(&b, "%s %+v %p\n", t.Name, t.Stats, t.ColStats)
		for _, ix := range t.Indexes {
			fmt.Fprintf(&b, "  %s %p %+v\n", ix.Name, ix.Tree, ix.Stats)
		}
	}
	return b.String()
}

// TestLeakLedgerSweep fails fetch k of each entry point's run k, for every k
// until a run completes without reaching a faulted fetch, and checks the
// ledger, and that the catalog is as it was, after every run; then runs the
// entry point once more, clean.
func TestLeakLedgerSweep(t *testing.T) {
	for _, ep := range entryPoints {
		for _, mode := range faultModes {
			t.Run(ep.name+"/"+mode.name, func(t *testing.T) {
				db := newEmpDeptJobDB(t)
				assertClean(t, db)
				faulted := 0
				for n := int64(1); ; n++ {
					if n > 100000 {
						t.Fatal("sweep did not terminate: the entry point never completed")
					}
					db.Pool().SetFaultInjector(mode.inject(n))
					db.Pool().Flush()
					before := catalogState(db)
					err := ep.run(db)
					assertClean(t, db)
					if err == nil {
						break
					}
					if !mode.is(err) {
						t.Fatalf("fault at fetch %d: got %v, want an injected %s", n, err, mode.name)
					}
					if after := catalogState(db); after != before {
						t.Fatalf("fault at fetch %d changed the catalog from\n%s\nto\n%s", n, before, after)
					}
					faulted++
				}
				db.Pool().SetFaultInjector(nil)
				if err := ep.run(db); err != nil {
					t.Fatalf("clean run: %v", err)
				}
				assertClean(t, db)
				t.Logf("%d fetch positions faulted", faulted)
			})
		}
	}
}

// TestOpenScansPerDatabase: the open-scan gauge counts one database's
// scans. A cursor held open mid-stream on one database leaves another
// database's gauge at 0, while the other runs statements of its own.
func TestOpenScansPerDatabase(t *testing.T) {
	held, other := newEmpDeptJobDB(t), newEmpDeptJobDB(t)
	stmt, err := held.Prepare("SELECT NAME FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if n := sampleMap(held)["systemr_open_scans"].Value; n == 0 {
		t.Fatal("systemr_open_scans = 0 on the database holding a cursor open")
	}
	assertClean(t, other)
	if _, err := other.Query(ledgerJoin); err != nil {
		t.Fatal(err)
	}
	assertClean(t, other)
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, held)
}

// TestUncommittedRowsInvisible holds an explicit transaction's uncommitted
// INSERT open while every read entry point reads the table: each must read
// under a snapshot of its own and miss the row. A read with no snapshot
// sees every version not yet delete-marked, this one included.
func TestUncommittedRowsInvisible(t *testing.T) {
	db := newEmpDeptJobDB(t)
	const query = "SELECT DNO, DNAME FROM DEPT"
	want := len(db.MustExec(query).Rows)
	x := db.Begin()
	if _, err := x.Exec("INSERT INTO DEPT VALUES (99, 'GHOST', 'NOWHERE')"); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}

	// Each read returns the rows it saw, rendered as text.
	reads := []struct {
		name string
		read func() (rows int, text string, err error)
	}{
		{"query", func() (int, string, error) {
			res, err := db.Query(query)
			if err != nil {
				return 0, "", err
			}
			return len(res.Rows), fmt.Sprint(res.Rows), nil
		}},
		{"stmt_run", func() (int, string, error) {
			res, err := stmt.Run()
			if err != nil {
				return 0, "", err
			}
			return len(res.Rows), fmt.Sprint(res.Rows), nil
		}},
		{"stmt_open", func() (int, string, error) {
			rows, err := stmt.Open()
			if err != nil {
				return 0, "", err
			}
			var seen [][]any
			for {
				row, ok, err := rows.Next()
				if err != nil {
					return 0, "", err
				}
				if !ok {
					return len(seen), fmt.Sprint(seen), nil
				}
				seen = append(seen, row)
			}
		}},
		{"explain_analyze", func() (int, string, error) {
			if _, err := db.ExplainAnalyze(query); err != nil {
				return 0, "", err
			}
			return db.LastStats().Rows, "", nil
		}},
		{"dump", func() (int, string, error) {
			var b strings.Builder
			if err := db.DumpSQL(&b); err != nil {
				return 0, "", err
			}
			return strings.Count(b.String(), "INSERT INTO DEPT "), b.String(), nil
		}},
		{"run_planned", func() (int, string, error) {
			q, err := db.PlanSelect(query)
			if err != nil {
				return 0, "", err
			}
			rows, _, err := db.RunPlanned(q)
			if err != nil {
				return 0, "", err
			}
			return len(rows), fmt.Sprint(rows), nil
		}},
	}
	for _, r := range reads {
		n, text, err := r.read()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if n != want || strings.Contains(text, "GHOST") {
			t.Errorf("%s read %d DEPT rows (want %d): it sees the uncommitted insert", r.name, n, want)
		}
	}

	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
}
