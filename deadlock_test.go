package systemr_test

// Deadlock detection end to end: two transactions locking the same tables in
// opposite order must both terminate — exactly one as an ErrDeadlock victim,
// rolled back completely — and the victim's retry must succeed. Plus the
// lock-wait timeout fallback for stalls the wait-for graph cannot classify.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"systemr"
)

func TestDeadlockOneVictimAndRetry(t *testing.T) {
	db := newTxnDB(t)
	before := dumpSQL(t, db)

	tx1, tx2 := db.Begin(), db.Begin()
	if _, err := tx1.Exec("UPDATE T SET V = V + 1 WHERE K = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE U SET V = V + 1 WHERE K = 1"); err != nil {
		t.Fatal(err)
	}
	// Cross over: tx1 wants U (held by tx2), tx2 wants T (held by tx1).
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, step := range []struct {
		tx   *systemr.Txn
		stmt string
	}{
		{tx1, "UPDATE U SET V = V + 2 WHERE K = 1"},
		{tx2, "UPDATE T SET V = V + 2 WHERE K = 1"},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = step.tx.Exec(step.stmt)
		}()
	}
	wg.Wait()

	victims := 0
	var victim, survivor *systemr.Txn
	for i, tx := range []*systemr.Txn{tx1, tx2} {
		if errs[i] != nil {
			if !errors.Is(errs[i], systemr.ErrDeadlock) {
				t.Fatalf("txn %d failed with %v, want ErrDeadlock", i+1, errs[i])
			}
			victims++
			victim = tx
		} else {
			survivor = tx
		}
	}
	if victims != 1 {
		t.Fatalf("%d deadlock victims, want exactly 1", victims)
	}
	if !victim.Aborted() {
		t.Fatal("victim not marked aborted")
	}

	// The victim is dead until acknowledged: statements and Commit fail,
	// Rollback acknowledges.
	if _, err := victim.Exec("SELECT COUNT(*) FROM T"); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("statement on aborted txn: %v, want ErrTxnAborted", err)
	}
	if err := victim.Commit(); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("Commit on aborted txn: %v, want ErrTxnAborted", err)
	}
	if err := victim.Rollback(); err != nil {
		t.Fatalf("Rollback acknowledgment: %v", err)
	}

	// The survivor commits; the victim's retry now runs to completion.
	if err := survivor.Commit(); err != nil {
		t.Fatal(err)
	}
	retry := db.Begin()
	for _, s := range []string{
		"UPDATE T SET V = V + 1 WHERE K = 1",
		"UPDATE U SET V = V + 2 WHERE K = 1",
	} {
		if _, err := retry.Exec(s); err != nil {
			t.Fatalf("retry %s: %v", s, err)
		}
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)

	m := sampleMap(db)
	if got := m["systemr_deadlocks_total"].Value; got != 1 {
		t.Fatalf("deadlocks_total = %g, want 1", got)
	}
	if got := m["systemr_txn_rollbacks_total"].Value; got != 1 {
		t.Fatalf("txn_rollbacks_total = %g, want 1 (the engine abort)", got)
	}

	// The final state must match one of the two serializations — the
	// survivor's whole transaction plus the retry, with the victim's first
	// statement fully undone. Survivor tx1: T=10+1, U=10+2, retry +1/+2 →
	// T=12, U=14. Survivor tx2: T=10+2, U=10+1, retry +1/+2 → T=13, U=13.
	if before == dumpSQL(t, db) {
		t.Fatal("no committed work visible")
	}
	s1 := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 1 AND V = 12") +
		count(t, db, "SELECT COUNT(*) FROM U WHERE K = 1 AND V = 14")
	s2 := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 1 AND V = 13") +
		count(t, db, "SELECT COUNT(*) FROM U WHERE K = 1 AND V = 13")
	if s1 != 2 && s2 != 2 {
		t.Fatalf("final state matches neither serialization (s1=%d s2=%d)", s1, s2)
	}
}

func TestLockTimeoutFallback(t *testing.T) {
	db := openDB(systemr.Config{LockTimeout: 50 * time.Millisecond})
	db.MustExec("CREATE TABLE T (K INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1)")

	holder := db.Begin()
	if _, err := holder.Exec("UPDATE T SET K = 2 WHERE K = 1"); err != nil {
		t.Fatal(err)
	}
	// No cycle — just a stall: the waiter must fall back to the timeout.
	start := time.Now()
	_, err := db.Exec("UPDATE T SET K = 3 WHERE K = 1")
	if !errors.Is(err, systemr.ErrLockTimeout) {
		t.Fatalf("stalled statement: %v, want ErrLockTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took far longer than configured")
	}
	if err := holder.Rollback(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
	m := sampleMap(db)
	if got := m["systemr_lock_timeouts_total"].Value; got != 1 {
		t.Fatalf("lock_timeouts_total = %g, want 1", got)
	}
	// The engine is fully usable afterwards.
	if got := count(t, db, "SELECT COUNT(*) FROM T WHERE K = 1"); got != 1 {
		t.Fatal("rollback lost the original row")
	}
}
