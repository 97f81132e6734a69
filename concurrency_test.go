package systemr_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"systemr"
)

// TestConcurrentStatements exercises the table-lock layer end to end:
// parallel readers on shared tables, writers on separate tables, and DDL,
// all racing (run under -race in CI). Correctness bar: no panics, no
// errors, and final counts add up.
func TestConcurrentStatements(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.MustExec("CREATE TABLE LOG1 (N INTEGER)")
	db.MustExec("CREATE TABLE LOG2 (N INTEGER)")

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Readers over the shared EMP table.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Query("SELECT COUNT(*) FROM EMP WHERE DNO = 5"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Writers on disjoint tables (exclusive locks, but not on EMP).
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := fmt.Sprintf("LOG%d", g+1)
			for i := 0; i < 25; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d)", table, i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// A competing writer against the readers' table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO EMP VALUES ('NEW%02d', 5, 5, 1000.0)", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	// DDL racing with everything (exclusive catalog lock).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := db.Exec("UPDATE STATISTICS"); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := db.Query("SELECT COUNT(*) FROM LOG1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 25 {
		t.Fatalf("LOG1 count %v", res.Rows[0][0])
	}
	res, err = db.Query("SELECT COUNT(*) FROM EMP WHERE NAME = 'NEW05'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 {
		t.Fatalf("EMP insert lost: %v", res.Rows[0][0])
	}
}

// TestConcurrentCancellation hammers QueryContext with very short deadlines
// from many goroutines (run under -race in CI). Any mix of results, timeouts,
// and cancellations is fine; what must hold is that every error is a typed
// governor error, no scan or lock leaks, and the engine stays fully usable.
func TestConcurrentCancellation(t *testing.T) {
	db := newEmpDeptJobDB(t)
	queries := []string{
		"SELECT COUNT(*) FROM EMP E1, EMP E2 WHERE E1.SAL < E2.SAL",
		"SELECT E.NAME, D.DNAME FROM EMP E, DEPT D WHERE E.DNO = D.DNO ORDER BY E.NAME",
		"SELECT COUNT(*) FROM EMP WHERE DNO = 5",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*20)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				timeout := time.Duration(i%5) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, err := db.QueryContext(ctx, queries[(g+i)%len(queries)])
				cancel()
				if err != nil &&
					!errors.Is(err, systemr.ErrCanceled) &&
					!errors.Is(err, systemr.ErrBudgetExceeded) {
					errs <- fmt.Errorf("goroutine %d iter %d: unexpected error %w", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertClean(t, db)
	// Engine must remain fully usable.
	res, err := db.Query("SELECT COUNT(*) FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 300 {
		t.Fatalf("EMP count after storm: %v", res.Rows[0][0])
	}
}
