package systemr_test

// MVCC snapshot-isolation surface tests (PR 8): a cursor keeps reading the
// version set it opened over while writers commit around it; an explicit
// transaction gets repeatable reads from one BEGIN-time snapshot; concurrent
// updates of the same row resolve by first-updater-wins (ErrWriteConflict,
// retryable); and vacuum physically reclaims versions only once no live
// snapshot can reach them.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"systemr"
)

// mvccDB is a small single-table fixture: T(A, B) with rows (i, i) for
// i in [0, n).
func mvccDB(t *testing.T, n int) *systemr.DB {
	t.Helper()
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER)")
	stmt := "INSERT INTO T VALUES "
	for i := 0; i < n; i++ {
		if i > 0 {
			stmt += ", "
		}
		stmt += fmt.Sprintf("(%d, %d)", i, i)
	}
	db.MustExec(stmt)
	db.MustExec("UPDATE STATISTICS")
	return db
}

// sumB returns SUM(B) over T through the given query runner.
func sumB(t *testing.T, q func(string) (*systemr.Result, error)) int64 {
	t.Helper()
	res, err := q("SELECT SUM(B) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Rows[0][0].(int64)
	if !ok {
		t.Fatalf("SUM(B) = %v (%T), want int64", res.Rows[0][0], res.Rows[0][0])
	}
	return v
}

// TestCursorSnapshotAcrossCommittedUpdate opens a cursor, lets a concurrent
// statement UPDATE every row and commit, and checks the cursor still streams
// the versions that were current when it opened — then that a fresh
// statement sees the committed update.
func TestCursorSnapshotAcrossCommittedUpdate(t *testing.T) {
	const n = 20
	db := mvccDB(t, n)
	stmt, err := db.Prepare("SELECT B FROM T")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	// Read a few rows, then commit an update under the cursor. Snapshot
	// readers hold no table lock, so the writer does not block.
	for i := 0; i < 3; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("row %d before update: ok=%v err=%v", i, ok, err)
		}
	}
	db.MustExec("UPDATE T SET B = B + 1000")

	// Drain: every B must still be from the pre-update version set.
	got := 3
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b := row[0].(int64); b >= 1000 {
			t.Fatalf("cursor leaked a post-snapshot version: B = %d", b)
		}
		got++
	}
	if got != n {
		t.Fatalf("cursor streamed %d rows, want %d", got, n)
	}

	// A fresh statement snapshot sees the committed update.
	want := int64(n*(n-1)/2 + n*1000)
	if s := sumB(t, db.Query); s != want {
		t.Fatalf("post-update SUM(B) = %d, want %d", s, want)
	}
}

// TestRepeatableReadsInTxn checks an explicit transaction reads under its
// BEGIN-time snapshot for its whole life: rows committed by other statements
// mid-transaction stay invisible until it finishes.
func TestRepeatableReadsInTxn(t *testing.T) {
	const n = 10
	db := mvccDB(t, n)
	base := int64(n * (n - 1) / 2)

	x := db.Begin()
	defer x.Rollback()
	if s := sumB(t, x.Query); s != base {
		t.Fatalf("first read SUM(B) = %d, want %d", s, base)
	}

	// Autocommitted writes land while x is open (snapshot readers take no
	// table locks, so neither side blocks the other).
	db.MustExec("INSERT INTO T VALUES (100, 100)")
	db.MustExec("UPDATE T SET B = B + 1000 WHERE A = 0")

	if s := sumB(t, x.Query); s != base {
		t.Fatalf("repeatable read violated: SUM(B) = %d, want %d", s, base)
	}
	// Its own writes ARE visible to it (read-your-writes within the txn).
	if _, err := x.Exec("INSERT INTO T VALUES (200, 200)"); err != nil {
		t.Fatal(err)
	}
	if s := sumB(t, x.Query); s != base+200 {
		t.Fatalf("own write invisible: SUM(B) = %d, want %d", s, base+200)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}

	// After commit a fresh snapshot sees everything.
	if s := sumB(t, db.Query); s != base+100+1000+200 {
		t.Fatalf("post-commit SUM(B) = %d, want %d", s, base+100+1000+200)
	}
}

// TestWriteConflictFirstUpdaterWins: two transactions snapshot the same row;
// the first to update it commits, and the second's update fails with
// ErrWriteConflict, aborting its transaction — which is then retryable.
func TestWriteConflictFirstUpdaterWins(t *testing.T) {
	db := mvccDB(t, 5)

	x1 := db.Begin()
	x2 := db.Begin() // snapshots the row before x1 touches it
	if _, err := x1.Exec("UPDATE T SET B = 100 WHERE A = 2"); err != nil {
		t.Fatal(err)
	}
	if err := x1.Commit(); err != nil {
		t.Fatal(err)
	}

	_, err := x2.Exec("UPDATE T SET B = 200 WHERE A = 2")
	if !errors.Is(err, systemr.ErrWriteConflict) {
		t.Fatalf("second updater got %v, want ErrWriteConflict", err)
	}
	// The conflict aborted the whole transaction; statements fail until the
	// session acknowledges with Rollback.
	if _, err := x2.Query("SELECT A FROM T"); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("statement after conflict got %v, want ErrTxnAborted", err)
	}
	if err := x2.Commit(); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("commit after conflict got %v, want ErrTxnAborted", err)
	}
	if err := x2.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Retry from Begin succeeds: the fresh snapshot includes x1's version.
	x3 := db.Begin()
	if _, err := x3.Exec("UPDATE T SET B = 200 WHERE A = 2"); err != nil {
		t.Fatal(err)
	}
	if err := x3.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT B FROM T WHERE A = 2")
	if err != nil {
		t.Fatal(err)
	}
	if b := res.Rows[0][0].(int64); b != 200 {
		t.Fatalf("B = %d after retry, want 200", b)
	}
}

// TestVacuumRespectsOpenSnapshots: dead versions stay in place while a
// cursor's snapshot can still read them, and are physically reclaimed —
// exactly once — after the cursor closes.
func TestVacuumRespectsOpenSnapshots(t *testing.T) {
	const n = 10
	db := mvccDB(t, n)
	stmt, err := db.Prepare("SELECT B FROM T")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Open() // pins the vacuum horizon
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("UPDATE T SET B = B + 1000") // n dead versions
	db.MustExec("DELETE FROM T WHERE A = 0") // one more

	if got := db.Vacuum(); got != 0 {
		t.Fatalf("vacuum reclaimed %d versions under an open snapshot, want 0", got)
	}
	// The cursor still reads its version set after the (no-op) vacuum.
	seen := 0
	for {
		row, ok, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b := row[0].(int64); b >= 1000 {
			t.Fatalf("cursor leaked a post-snapshot version: B = %d", b)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("cursor streamed %d rows, want %d", seen, n)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Horizon released: the n updated-over versions and the deleted row's
	// final version are all reclaimable now.
	if got, want := db.Vacuum(), n+1; got != want {
		t.Fatalf("vacuum reclaimed %d versions, want %d", got, want)
	}
	if got := db.Vacuum(); got != 0 {
		t.Fatalf("second vacuum reclaimed %d versions, want 0", got)
	}
	// Live data is intact.
	want := int64((n-1)*n/2 - 0 + (n-1)*1000)
	if s := sumB(t, db.Query); s != want {
		t.Fatalf("post-vacuum SUM(B) = %d, want %d", s, want)
	}
}

// TestAutoVacuumTriggers: a vacuum pass runs after every DefaultVacuumEvery
// writing commits and not before. One INSERT and then UPDATEs of its row,
// each leaving one dead version: the pass on the last commit reclaims them
// all, so an explicit Vacuum finds nothing left.
func TestAutoVacuumTriggers(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1, 0)")
	for i := 2; i < systemr.DefaultVacuumEvery; i++ {
		db.MustExec("UPDATE T SET B = B + 1")
	}
	if got := sampleMap(db)["systemr_vacuum_runs_total"].Value; got != 0 {
		t.Fatalf("vacuum_runs_total = %g after %d writing commits, want 0", got, systemr.DefaultVacuumEvery-1)
	}
	db.MustExec("UPDATE T SET B = B + 1")
	m := sampleMap(db)
	if got := m["systemr_vacuum_runs_total"].Value; got != 1 {
		t.Fatalf("vacuum_runs_total = %g after %d writing commits, want 1", got, systemr.DefaultVacuumEvery)
	}
	if got, want := m["systemr_vacuum_reclaimed_total"].Value, float64(systemr.DefaultVacuumEvery-1); got != want {
		t.Fatalf("vacuum_reclaimed_total = %g, want %g", got, want)
	}
	if got := db.Vacuum(); got != 0 {
		t.Fatalf("explicit vacuum after auto-vacuum reclaimed %d, want 0", got)
	}
	if s := sumB(t, db.Query); s != systemr.DefaultVacuumEvery-1 {
		t.Fatalf("SUM(B) = %d, want %d", s, systemr.DefaultVacuumEvery-1)
	}
}

// TestSnapshotReadersPassWriterLock is the scenario snapshot isolation exists
// for: one transaction UPDATEs T and sits on its uncommitted exclusive lock.
// Under snapshot reads concurrent readers all complete and see the committed
// sum.
func TestSnapshotReadersPassWriterLock(t *testing.T) {
	const readers, reads = 4, 5
	t.Run("snapshot", func(t *testing.T) {
		db := mvccDB(t, 200)
		committed := sumB(t, db.Query)
		x := db.Begin()
		defer x.Rollback()
		if _, err := x.Exec("UPDATE T SET B = B + 1"); err != nil {
			t.Fatalf("writer update: %v", err)
		}
		errs := make(chan error, readers*reads)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < reads; i++ {
					res, err := db.Query("SELECT SUM(B) FROM T")
					if err == nil && res.Rows[0][0] != committed {
						err = fmt.Errorf("read SUM(B) = %v, want the committed %d", res.Rows[0][0], committed)
					}
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("snapshot read under the uncommitted writer: %v", err)
			}
		}
	})
}
