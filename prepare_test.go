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

func TestPrepareRejectsNonSelect(t *testing.T) {
	db := newEmpDeptJobDB(t)
	if _, err := db.Prepare("DELETE FROM EMP"); err == nil {
		t.Fatal("Prepare(DELETE) must fail")
	}
	if _, err := db.Prepare("SELECT x FROM nope"); err == nil {
		t.Fatal("Prepare of invalid query must fail")
	}
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
