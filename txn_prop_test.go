package systemr_test

// Differential property test: randomized transactions run concurrently
// against one database, retrying on deadlock and on first-updater-wins
// write conflicts; every committed transaction's serialization position is
// captured through a shared ORDERLOG table whose exclusive lock totally
// orders commits. Replaying the committed transactions serially on a fresh
// database in that order must produce a byte-identical SQL dump — writer
// 2PL plus snapshot write-conflict detection really did serialize, and
// rollback really did erase every aborted attempt. Concurrent snapshot
// readers ride along: every aggregate they observe must equal the state
// after some prefix of the serialization order, because a snapshot's
// committed set is always a commit-order prefix (transactions deregister
// from the XID registry inside their exclusive-lock window).

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"systemr"
)

// propTxn is one generated transaction: a deterministic statement list,
// replayable on the oracle.
type propTxn struct {
	g, i  int
	stmts []string
}

// genTxns precomputes every transaction's statements from a seeded source,
// so the concurrent run and the serial replay execute identical SQL.
func genTxns(goroutines, perG int, seed int64) [][]propTxn {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"T0", "T1", "T2"}
	all := make([][]propTxn, goroutines)
	for g := range all {
		all[g] = make([]propTxn, perG)
		for i := range all[g] {
			n := 2 + rng.Intn(2)
			var stmts []string
			// Visit tables in a random order (the deadlock fuel) with a
			// random op against each.
			perm := rng.Perm(len(tables))[:n]
			for _, ti := range perm {
				tab := tables[ti]
				key := rng.Intn(20)
				switch rng.Intn(3) {
				case 0:
					// Keys are namespaced per (g,i) so inserts never collide.
					stmts = append(stmts, fmt.Sprintf(
						"INSERT INTO %s VALUES (%d, %d)", tab, 1000+100*g+i, key))
				case 1:
					stmts = append(stmts, fmt.Sprintf(
						"UPDATE %s SET V = V + %d WHERE K = %d", tab, 1+rng.Intn(9), key))
				case 2:
					stmts = append(stmts, fmt.Sprintf(
						"DELETE FROM %s WHERE K = %d AND V < %d", tab, key, rng.Intn(50)))
				}
			}
			all[g][i] = propTxn{g: g, i: i, stmts: stmts}
		}
	}
	return all
}

func newPropDB() *systemr.DB {
	db := openDB(systemr.Config{})
	for _, tab := range []string{"T0", "T1", "T2"} {
		db.MustExec("CREATE TABLE " + tab + " (K INTEGER, V INTEGER)")
		for k := 0; k < 20; k++ {
			db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", tab, k, k))
		}
	}
	db.MustExec("CREATE TABLE ORDERLOG (G INTEGER, I INTEGER)")
	db.MustExec("UPDATE STATISTICS")
	return db
}

func TestConcurrentTxnsMatchSerialOracle(t *testing.T) {
	const goroutines, perG = 6, 25
	txns := genTxns(goroutines, perG, 0x5E11A)

	db := newPropDB()
	var mu sync.Mutex
	var order []propTxn

	// Snapshot readers: aggregate T0 lock-free while the writers run. Each
	// observation is asserted below against the set of serial-prefix states.
	const readers = 3
	var robs [readers][][2]int64
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query("SELECT COUNT(*), SUM(V) FROM T0")
				if err != nil {
					t.Errorf("snapshot reader: %v", err)
					return
				}
				robs[r] = append(robs[r], aggPair(res))
				time.Sleep(2 * time.Millisecond)
			}
		}(r)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pt := range txns[g] {
				if !runPropTxn(t, db, pt, &mu, &order) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	assertClean(t, db)
	if len(order) != goroutines*perG {
		t.Fatalf("%d committed transactions, want %d", len(order), goroutines*perG)
	}

	// Serial oracle: replay the committed transactions in serialization
	// order on a fresh database.
	oracle := newPropDB()
	prefixes := make(map[[2]int64]bool)
	snapState := func() {
		res, err := oracle.Query("SELECT COUNT(*), SUM(V) FROM T0")
		if err != nil {
			t.Fatalf("oracle aggregate: %v", err)
		}
		prefixes[aggPair(res)] = true
	}
	snapState() // the empty prefix: the seed state
	for _, pt := range order {
		conn := oracle.Conn()
		for _, s := range append([]string{"BEGIN"}, pt.stmts...) {
			if _, err := conn.Exec(s); err != nil {
				t.Fatalf("oracle replay (%d,%d) %s: %v", pt.g, pt.i, s, err)
			}
		}
		if _, err := conn.Exec(fmt.Sprintf(
			"INSERT INTO ORDERLOG VALUES (%d, %d)", pt.g, pt.i)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		snapState()
	}
	for r := range robs {
		for i, ob := range robs[r] {
			if !prefixes[ob] {
				t.Errorf("reader %d observation %d = (count=%d sum=%d) matches no serial prefix", r, i, ob[0], ob[1])
			}
		}
	}
	want, got := dumpSQL(t, oracle), dumpSQL(t, db)
	if want != got {
		t.Fatalf("concurrent result diverges from serial oracle:\n--- oracle ---\n%s--- concurrent ---\n%s", want, got)
	}
	m := sampleMap(db)
	nobs := 0
	for r := range robs {
		nobs += len(robs[r])
	}
	t.Logf("deadlocks: %g, write conflicts: %g, reader observations checked: %d",
		m["systemr_deadlocks_total"].Value, m["systemr_write_conflicts_total"].Value, nobs)
}

// aggPair extracts (COUNT, SUM) from a one-row aggregate result; a NULL sum
// (empty input) maps to -1.
func aggPair(res *systemr.Result) [2]int64 {
	cnt, _ := res.Rows[0][0].(int64)
	sum := int64(-1)
	if v, ok := res.Rows[0][1].(int64); ok {
		sum = v
	}
	return [2]int64{cnt, sum}
}

// runPropTxn executes one generated transaction, retrying from scratch when
// it is chosen as a deadlock victim. The final ORDERLOG insert X-locks the
// shared log table, so appending to order between that insert and COMMIT
// happens in serialization order. Reports false if the test failed.
func runPropTxn(t *testing.T, db *systemr.DB, pt propTxn, mu *sync.Mutex, order *[]propTxn) bool {
	for attempt := 0; attempt < 200; attempt++ {
		tx := db.Begin()
		aborted := false
		for j, s := range pt.stmts {
			if j > 0 {
				// Hold the locks acquired so far for a beat: single statements
				// finish in microseconds, and without this stagger the lock
				// holds of different goroutines almost never overlap enough to
				// form the cycles this test exists to exercise.
				time.Sleep(200 * time.Microsecond)
			}
			if _, err := tx.Exec(s); err != nil {
				if errors.Is(err, systemr.ErrDeadlock) || errors.Is(err, systemr.ErrTxnAborted) ||
					errors.Is(err, systemr.ErrWriteConflict) {
					aborted = true
					break
				}
				t.Errorf("txn (%d,%d) %s: %v", pt.g, pt.i, s, err)
				return false
			}
		}
		if !aborted {
			if _, err := tx.Exec(fmt.Sprintf(
				"INSERT INTO ORDERLOG VALUES (%d, %d)", pt.g, pt.i)); err != nil {
				if !errors.Is(err, systemr.ErrDeadlock) && !errors.Is(err, systemr.ErrTxnAborted) &&
					!errors.Is(err, systemr.ErrWriteConflict) {
					t.Errorf("txn (%d,%d) orderlog: %v", pt.g, pt.i, err)
					return false
				}
				aborted = true
			}
		}
		if aborted {
			if err := tx.Rollback(); err != nil {
				t.Errorf("txn (%d,%d) rollback: %v", pt.g, pt.i, err)
				return false
			}
			// Back off before retrying, growing with the attempt count and
			// skewed by goroutine id: victims that retry instantly just
			// recreate the same cycle against the same peers.
			time.Sleep(time.Duration(attempt+pt.g+1) * time.Millisecond)
			continue
		}
		// ORDERLOG's X lock is held from the insert until Commit releases
		// it: no other transaction can pass its own ORDERLOG insert in
		// between, so this append position is the serialization position.
		mu.Lock()
		*order = append(*order, pt)
		mu.Unlock()
		if err := tx.Commit(); err != nil {
			t.Errorf("txn (%d,%d) commit: %v", pt.g, pt.i, err)
			return false
		}
		return true
	}
	t.Errorf("txn (%d,%d): no commit in 200 attempts", pt.g, pt.i)
	return false
}
