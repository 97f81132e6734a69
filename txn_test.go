package systemr_test

// End-to-end tests of multi-statement transactions: BEGIN/COMMIT/ROLLBACK
// through the Conn session and the Begin API, statement-level atomicity
// inside transactions, autocommit atomicity, transaction-scope lock
// retention, and the idempotence of Commit/Rollback.

import (
	"strings"
	"testing"
	"time"

	"systemr"
)

// newTxnDB builds a small two-table database with a unique index.
func newTxnDB(t testing.TB) *systemr.DB {
	t.Helper()
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (K INTEGER, V INTEGER)")
	db.MustExec("CREATE UNIQUE INDEX T_K ON T (K)")
	db.MustExec("CREATE TABLE U (K INTEGER, V INTEGER)")
	for i := 1; i <= 5; i++ {
		db.MustExec("INSERT INTO T VALUES (" + itoa(i) + ", " + itoa(10*i) + ")")
		db.MustExec("INSERT INTO U VALUES (" + itoa(i) + ", " + itoa(10*i) + ")")
	}
	db.MustExec("UPDATE STATISTICS")
	return db
}

// dumpSQL captures the database as its SQL script — the byte-exact oracle
// the rollback tests compare against.
func dumpSQL(t testing.TB, db *systemr.DB) string {
	t.Helper()
	var b strings.Builder
	if err := db.DumpSQL(&b); err != nil {
		t.Fatalf("DumpSQL: %v", err)
	}
	return b.String()
}

func count(t testing.TB, q interface {
	Query(string) (*systemr.Result, error)
}, text string) int64 {
	t.Helper()
	res, err := q.Query(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return res.Rows[0][0].(int64)
}

func TestTxnCommitPublishes(t *testing.T) {
	db := newTxnDB(t)
	conn := db.Conn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !conn.InTxn() {
		t.Fatal("InTxn = false after BEGIN")
	}
	if _, err := conn.Exec("INSERT INTO T VALUES (6, 60)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("UPDATE T SET V = V + 1 WHERE K = 1"); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own writes.
	if got := count(t, conn, "SELECT COUNT(*) FROM T"); got != 6 {
		t.Fatalf("count inside txn = %d, want 6", got)
	}
	if _, err := conn.Exec("COMMIT TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	if conn.InTxn() {
		t.Fatal("InTxn = true after COMMIT")
	}
	assertClean(t, db)
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE V = 11"); got != 1 {
		t.Fatalf("committed update invisible: %d rows with V=11", got)
	}
	if got := count(t, db, "SELECT COUNT(*) FROM T"); got != 6 {
		t.Fatalf("count after commit = %d, want 6", got)
	}
}

func TestTxnRollbackRestoresExactState(t *testing.T) {
	db := newTxnDB(t)
	before := dumpSQL(t, db)
	conn := db.Conn()
	for _, s := range []string{
		"BEGIN WORK",
		"INSERT INTO T VALUES (7, 70)",
		"UPDATE T SET V = V * 2 WHERE K < 3",
		"DELETE FROM T WHERE K = 5",
		"DELETE FROM U WHERE K > 2",
	} {
		if _, err := conn.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
	if after := dumpSQL(t, db); after != before {
		t.Fatalf("dump changed across BEGIN..ROLLBACK:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	// The unique index is consistent with the restored heap: key 5 is taken
	// again, key 7 is free.
	if _, err := db.Exec("INSERT INTO T VALUES (5, 0)"); err == nil {
		t.Fatal("restored key 5 did not reject a duplicate")
	}
	if _, err := db.Exec("INSERT INTO T VALUES (7, 70)"); err != nil {
		t.Fatalf("key 7 should be free after rollback: %v", err)
	}
}

func TestStatementFailureKeepsTxnAlive(t *testing.T) {
	db := newTxnDB(t)
	conn := db.Conn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO T VALUES (8, 80)"); err != nil {
		t.Fatal(err)
	}
	// Multi-row insert whose second row collides: the whole statement rolls
	// back (row 9 must not survive), but the transaction continues.
	if _, err := conn.Exec("INSERT INTO T VALUES (9, 90), (1, 0)"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if got := count(t, conn, "SELECT COUNT(*) FROM T WHERE K = 9"); got != 0 {
		t.Fatal("failed statement's first row survived inside the txn")
	}
	if _, err := conn.Exec("INSERT INTO T VALUES (10, 100)"); err != nil {
		t.Fatalf("transaction unusable after statement failure: %v", err)
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := count(t, db, "SELECT COUNT(*) FROM T"); got != 7 {
		t.Fatalf("count = %d, want 7 (5 seed + rows 8 and 10)", got)
	}
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 9"); got != 0 {
		t.Fatal("failed statement's first row survived the commit")
	}
}

func TestAutocommitStatementAtomicity(t *testing.T) {
	db := newTxnDB(t)
	before := dumpSQL(t, db)
	if _, err := db.Exec("INSERT INTO T VALUES (11, 110), (12, 120), (1, 0)"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	assertClean(t, db)
	if after := dumpSQL(t, db); after != before {
		t.Fatalf("failed autocommit statement left state behind:\n%s", after)
	}
}

func TestCommitAndRollbackIdempotent(t *testing.T) {
	db := newTxnDB(t)
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO T VALUES (20, 200)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("second Commit: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after Commit: %v", err)
	}
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 20"); got != 1 {
		t.Fatal("Rollback after Commit undid the committed work")
	}
	if _, err := tx.Exec("INSERT INTO T VALUES (21, 210)"); err == nil {
		t.Fatal("statement accepted on a finished transaction")
	}

	tx2 := db.Begin()
	if _, err := tx2.Exec("INSERT INTO T VALUES (22, 220)"); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatalf("second Rollback: %v", err)
	}
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 22"); got != 0 {
		t.Fatal("rolled-back row visible")
	}
	assertClean(t, db)
}

func TestDDLRejectedInsideTxn(t *testing.T) {
	db := newTxnDB(t)
	conn := db.Conn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		"CREATE TABLE W (A INTEGER)",
		"CREATE INDEX T_V ON T (V)",
		"DROP TABLE U",
		"UPDATE STATISTICS",
	} {
		if _, err := conn.Exec(s); err == nil {
			t.Fatalf("%s accepted inside a transaction", s)
		}
	}
	// The rejections did not poison the transaction.
	if _, err := conn.Exec("INSERT INTO T VALUES (30, 300)"); err != nil {
		t.Fatalf("transaction unusable after DDL rejection: %v", err)
	}
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
}

func TestTxnControlNeedsSession(t *testing.T) {
	db := newTxnDB(t)
	for _, s := range []string{"BEGIN", "COMMIT", "ROLLBACK WORK"} {
		_, err := db.Exec(s)
		if err == nil || !strings.Contains(err.Error(), "DB.Conn") {
			t.Fatalf("DB.Exec(%q) = %v, want session hint", s, err)
		}
	}
	conn := db.Conn()
	if _, err := conn.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT without BEGIN accepted")
	}
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN accepted")
	}
	if _, err := conn.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestTxnLockRetention(t *testing.T) {
	db := newTxnDB(t)
	conn := db.Conn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("UPDATE T SET V = 0 WHERE K = 1"); err != nil {
		t.Fatal(err)
	}
	// A concurrent writer must block until COMMIT releases the X lock —
	// strict two-phase locking, not statement-scope.
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(entered)
		_, err := db.Exec("UPDATE T SET V = 1 WHERE K = 1")
		done <- err
	}()
	<-entered
	select {
	case err := <-done:
		t.Fatalf("concurrent writer finished while txn held the lock (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writer after commit: %v", err)
	}
	assertClean(t, db)
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE V = 1"); got != 1 {
		t.Fatal("second writer's update lost")
	}
}

func TestConnCloseRollsBack(t *testing.T) {
	db := newTxnDB(t)
	before := dumpSQL(t, db)
	conn := db.Conn()
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("DELETE FROM T WHERE K > 1"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
	if after := dumpSQL(t, db); after != before {
		t.Fatal("Conn.Close did not roll back the open transaction")
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestTxnMetrics(t *testing.T) {
	db := newTxnDB(t)
	conn := db.Conn()
	mustConn := func(s string) {
		t.Helper()
		if _, err := conn.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustConn("BEGIN")
	m := sampleMap(db)
	if got := m["systemr_txns_active"].Value; got != 1 {
		t.Fatalf("txns_active = %g, want 1", got)
	}
	mustConn("INSERT INTO T VALUES (40, 400)")
	mustConn("COMMIT")
	mustConn("BEGIN")
	mustConn("ROLLBACK")
	m = sampleMap(db)
	if got := m["systemr_txn_begins_total"].Value; got != 2 {
		t.Fatalf("txn_begins_total = %g, want 2", got)
	}
	if got := m["systemr_txn_commits_total"].Value; got != 1 {
		t.Fatalf("txn_commits_total = %g, want 1", got)
	}
	if got := m["systemr_txn_rollbacks_total"].Value; got != 1 {
		t.Fatalf("txn_rollbacks_total = %g, want 1", got)
	}
	if got := m["systemr_txns_active"].Value; got != 0 {
		t.Fatalf("txns_active = %g, want 0", got)
	}
}
