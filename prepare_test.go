package systemr_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"systemr"
	"systemr/internal/compile"
	"systemr/internal/lock"
)

func TestPrepareRunMany(t *testing.T) {
	db := newEmpDeptJobDB(t)
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE DNO = 7 ORDER BY NAME")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.Explain(), "QUERY BLOCK") {
		t.Fatal("compiled plan must explain")
	}
	var first []string
	for run := 0; run < 5; run++ {
		res, err := stmt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("run %d: %d rows", run, len(res.Rows))
		}
		if run == 0 {
			for _, r := range res.Rows {
				first = append(first, r[0].(string))
			}
			continue
		}
		for i, r := range res.Rows {
			if r[0].(string) != first[i] {
				t.Fatalf("run %d differs at %d", run, i)
			}
		}
	}
	// The compiled plan keeps working as data changes (stale statistics are
	// System R behavior; correctness is unaffected).
	db.MustExec("INSERT INTO EMP VALUES ('AAA', 7, 5, 1.0)")
	res, err := stmt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 || res.Rows[0][0].(string) != "AAA" {
		t.Fatalf("post-insert run: %d rows", len(res.Rows))
	}
}

// TestPrepareDML: a prepared UPDATE or DELETE runs with its arguments and
// reports the rows it affected; it cannot be opened as a cursor. INSERT,
// DDL and an invalid query are refused.
func TestPrepareDML(t *testing.T) {
	db := newEmpDeptJobDB(t)
	count := func(where string) int64 {
		t.Helper()
		res, err := db.Query("SELECT COUNT(*) FROM EMP WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].(int64)
	}
	run := func(stmt *systemr.Stmt, want int, args ...any) {
		t.Helper()
		res, err := stmt.Run(args...)
		if err != nil {
			t.Fatalf("%s %v: %v", stmt.Text(), args, err)
		}
		if res.Affected != want || res.Columns != nil {
			t.Fatalf("%s %v: affected %d, columns %v; want %d rows affected", stmt.Text(), args, res.Affected, res.Columns, want)
		}
	}
	// Preparing an UPDATE does not wait for a writer's lock on its table.
	writer := db.Begin()
	if _, err := writer.Exec("DELETE FROM EMP WHERE DNO = 30"); err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare("UPDATE EMP SET SAL = ? WHERE DNO = ? AND JOB = ?")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Rollback(); err != nil {
		t.Fatal(err)
	}
	run(upd, 5, 1.5, 7, 9) // department 7 has five SALES and five CLERKs
	run(upd, 0, 2.5, 7, 12)
	if got := count("SAL = 1.5"); got != 5 {
		t.Fatalf("SAL = 1.5 on %d rows after the prepared UPDATE, want 5", got)
	}
	if _, err := upd.Run(1.5, 7); err == nil {
		t.Fatal("a prepared UPDATE ran with too few arguments")
	}
	if _, err := upd.Open(1.5, 7, 9); err == nil {
		t.Fatal("Open of a prepared UPDATE must fail")
	}
	// A text without ? lifts its WHERE literals, as an ad hoc one does.
	lifted, err := db.Prepare("UPDATE EMP SET SAL = SAL + 1 WHERE DNO = 8")
	if err != nil {
		t.Fatal(err)
	}
	run(lifted, 10)
	run(lifted, 10)
	del, err := db.Prepare("DELETE FROM EMP WHERE DNO = ?")
	if err != nil {
		t.Fatal(err)
	}
	run(del, 10, 7)
	run(del, 0, 7)
	run(del, 10, 8)
	if got := count("DNO >= 1"); got != 280 {
		t.Fatalf("%d rows left after two prepared DELETEs, want 280", got)
	}
	for _, text := range []string{
		"INSERT INTO EMP VALUES ('X', 1, 5, 1.0)",
		"CREATE INDEX EMP_SAL ON EMP (SAL)",
		"SELECT x FROM nope",
		"DELETE FROM NOPE WHERE A = ?",
	} {
		if _, err := db.Prepare(text); err == nil {
			t.Fatalf("Prepare(%s) must fail", text)
		}
	}
	assertClean(t, db)
}

// TestPrepareAndDumpLockTimeout: while DDL holds the catalog lock
// exclusively, Prepare and DumpSQL report the failed lock wait instead of
// compiling or dumping without their lock.
func TestPrepareAndDumpLockTimeout(t *testing.T) {
	db := openDB(systemr.Config{LockTimeout: 50 * time.Millisecond})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	ddl := db.Locks().Acquire([]lock.Request{{Table: compile.CatalogLock, Mode: lock.Exclusive}})
	if ddl == nil {
		t.Fatal("could not take the catalog lock")
	}
	stmt, err := db.Prepare("SELECT A FROM T")
	if !errors.Is(err, systemr.ErrLockTimeout) || stmt != nil {
		t.Fatalf("Prepare under an exclusive catalog lock: %v, %v; want ErrLockTimeout", stmt, err)
	}
	var script strings.Builder
	if err := db.DumpSQL(&script); !errors.Is(err, systemr.ErrLockTimeout) {
		t.Fatalf("DumpSQL under an exclusive catalog lock: %v; want ErrLockTimeout", err)
	}
	ddl.Release()
	assertClean(t, db)
	if _, err := db.Prepare("SELECT A FROM T"); err != nil {
		t.Fatalf("Prepare after the lock is free: %v", err)
	}
	if err := db.DumpSQL(&script); err != nil {
		t.Fatalf("DumpSQL after the lock is free: %v", err)
	}
}
