package systemr_test

// Oracles for the catalog's two builders. UPDATE STATISTICS and CREATE
// INDEX read their tables through RSS segment scans under the statement's
// snapshot; what they build must equal what the same builders build from
// testutil's reference heap walk, on databases that hold delete-marked
// versions vacuum has not yet reclaimed.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"systemr"
	"systemr/internal/compile"
	"systemr/internal/lock"
	"systemr/internal/storage"
	"systemr/internal/testutil"
	"systemr/internal/value"
	"systemr/internal/workload"
)

// checkStatsOracle runs UPDATE STATISTICS and compares every user table's
// RelStats and ColStats with what the frozen reference builder
// (builders_ref_test.go) makes of testutil's reference heap walk, and every
// index's IndexStats with the reference's reading of the index's leaves:
// with reflect.DeepEqual, and bit for bit, so that it matters which of two
// equal values (FLOAT 0.0 and -0.0) becomes a histogram's Lo or a bucket's
// Hi.
func checkStatsOracle(t *testing.T, name string, db *systemr.DB) {
	t.Helper()
	db.MustExec("UPDATE STATISTICS")
	src := testutil.HeapRows(db.Catalog().Disk())
	for _, tab := range db.Catalog().Tables() {
		if tab.System {
			continue
		}
		rel, cols, err := refTableStats(tab, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab.Stats, rel) || !reflect.DeepEqual(tab.ColStats, cols) || colStatsBits(tab.ColStats) != colStatsBits(cols) {
			t.Errorf("%s: UPDATE STATISTICS built %s's statistics as %+v %s, the reference as %+v %s",
				name, tab.Name, tab.Stats, colStatsBits(tab.ColStats), rel, colStatsBits(cols))
		}
		for _, ix := range tab.Indexes {
			want := refIndexStats(ix.Tree.Leaves(), ix.Tree.NumPages())
			if !reflect.DeepEqual(ix.Stats, want) || indexStatsBits(ix.Stats) != indexStatsBits(want) {
				t.Errorf("%s: index %s's statistics are %s, the reference's %s", name, ix.Name, indexStatsBits(ix.Stats), indexStatsBits(want))
			}
		}
	}
}

// checkIndexOracle creates an index through SQL and checks its tree against
// the frozen reference bulk load over the reference heap walk — height,
// node count and leaf sequence, bit for bit — and its statistics, then
// drops it.
func checkIndexOracle(t *testing.T, name string, db *systemr.DB, ixName, create string) {
	t.Helper()
	db.MustExec(create)
	ix, ok := db.Catalog().Index(ixName)
	if !ok {
		t.Fatalf("%s: %s created no index %s", name, create, ixName)
	}
	want, err := refBulkLoad(ix, testutil.HeapRows(db.Catalog().Disk()))
	if err != nil {
		t.Fatal(err)
	}
	if h, n := ix.Tree.Height(), ix.Tree.NumPages(); h != want.height || n != want.nodes {
		t.Errorf("%s: %s built a tree of height %d and %d nodes, the reference %d and %d", name, create, h, n, want.height, want.nodes)
	}
	if got, ref := leavesBits(ix.Tree.Leaves()), leavesBits(want.leaves); got != ref {
		t.Errorf("%s: %s laid out the leaves %s, the reference %s", name, create, got, ref)
	}
	db.MustExec("UPDATE STATISTICS " + ix.Table.Name)
	if ref := refIndexStats(want.leaves, want.nodes); !reflect.DeepEqual(ix.Stats, ref) || indexStatsBits(ix.Stats) != indexStatsBits(ref) {
		t.Errorf("%s: %s's statistics are %s, the reference's %s", name, create, indexStatsBits(ix.Stats), indexStatsBits(ref))
	}
	db.MustExec("DROP INDEX " + ixName)
}

// deadVersions counts the delete-marked versions still stored in db.
func deadVersions(db *systemr.DB) int {
	n := 0
	for _, t := range db.Catalog().Tables() {
		for _, pid := range t.Segment.Pages() {
			page := db.Catalog().Disk().Page(pid)
			for s := uint16(0); s < page.NumSlots(); s++ {
				rec, rel, ok := page.Record(s)
				if !ok || rel != t.ID {
					continue
				}
				if h, _, err := storage.ParseVersionHeader(rec); err == nil && h.Xmax != 0 {
					n++
				}
			}
		}
	}
	return n
}

// randomDBWithDeadVersions builds a workload.RandomDB, then deletes and
// updates some of each table's rows, leaving delete-marked versions whose
// SERIAL values live versions repeat.
func randomDBWithDeadVersions(seed int64) *systemr.DB {
	rnd := rand.New(rand.NewSource(seed))
	db := workload.RandomDB(rnd, workload.RandomDBConfig{})
	for _, t := range db.Catalog().Tables() {
		if t.System {
			continue
		}
		db.MustExec(fmt.Sprintf("DELETE FROM %s WHERE K = %d", t.Name, rnd.Intn(10)))
		db.MustExec(fmt.Sprintf("UPDATE %s SET K = K + 1 WHERE SERIAL > %d", t.Name, rnd.Intn(20)))
	}
	return db
}

// TestStatisticsMatchReferenceWalk: every RelStats and ColStats UPDATE
// STATISTICS builds equals what the reference walk feeds the same builder,
// on the EMP/DEPT/JOB and skew fixtures and on random databases holding
// delete-marked versions.
func TestStatisticsMatchReferenceWalk(t *testing.T) {
	checkStatsOracle(t, "emp", openEmpDB(workload.EmpConfig{Emps: 500, SharedSegment: true}))
	checkStatsOracle(t, "emp/dept/job", newEmpDeptJobDB(t))
	skew, _ := openSkewDB(workload.SkewConfig{Rows: 5000, Seed: 3})
	checkStatsOracle(t, "skew", skew)
	dead := 0
	for seed := int64(1); seed <= 20; seed++ {
		db := randomDBWithDeadVersions(seed)
		dead += deadVersions(db)
		checkStatsOracle(t, fmt.Sprintf("random seed %d", seed), db)
	}
	if dead == 0 {
		t.Fatal("the random databases hold no delete-marked versions")
	}
}

// TestIndexHoldsVisibleVersions: an index built over delete-marked versions
// holds exactly the visible rows' (key, TID) pairs. The UPDATE that left
// each dead version kept its SERIAL, so the unique build also shows dead
// versions cannot violate uniqueness.
func TestIndexHoldsVisibleVersions(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		db := randomDBWithDeadVersions(seed)
		if deadVersions(db) == 0 {
			continue
		}
		for _, tab := range db.Catalog().Tables() {
			if tab.System {
				continue
			}
			name := fmt.Sprintf("random seed %d", seed)
			checkIndexOracle(t, name, db, "ORACLE_K", fmt.Sprintf("CREATE INDEX ORACLE_K ON %s (K)", tab.Name))
			checkIndexOracle(t, name, db, "ORACLE_S", fmt.Sprintf("CREATE UNIQUE INDEX ORACLE_S ON %s (SERIAL)", tab.Name))
		}
	}
}

// TestBuildersMatchFrozenReference: UPDATE STATISTICS and CREATE INDEX
// build exactly what the frozen reference builders build, on a bench-shaped
// database (analytic_skew's zipfian EVENTS and its KEYS, loaded by 500-row
// INSERTs) and on random databases holding delete-marked versions, NULLs,
// FLOAT zeros of both signs, and VARCHARs. Each index is built again under
// another name, and so is one on every column.
func TestBuildersMatchFrozenReference(t *testing.T) {
	skew, _ := openSkewDB(workload.SkewConfig{Rows: 20000, Seed: 5})
	var rows []string
	for k := 0; k < 1000; k++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, 'K%04d')", k, k%20, k*7919%1000))
	}
	skew.MustExec("CREATE TABLE KEYS (KEY INTEGER, GRP INTEGER, NAME VARCHAR)")
	skew.MustExec("INSERT INTO KEYS VALUES " + strings.Join(rows[:500], ", "))
	skew.MustExec("INSERT INTO KEYS VALUES " + strings.Join(rows[500:], ", "))
	skew.MustExec("CREATE UNIQUE INDEX KEYS_KEY ON KEYS (KEY)")
	skew.MustExec("CREATE INDEX KEYS_GRP ON KEYS (GRP)")
	// Z's FLOAT column mixes the two zeros among few other values, so the
	// sort decides which zero becomes a bucket's boundary.
	rnd := rand.New(rand.NewSource(5))
	rows = rows[:0]
	for i := 0; i < 2000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %s)", i, []string{"0.0", "-0.0", "-0.0", "1.5", "-2.5", "NULL"}[rnd.Intn(6)]))
	}
	skew.MustExec("CREATE TABLE Z (ID INTEGER, F FLOAT)")
	for i := 0; i < len(rows); i += 500 {
		skew.MustExec("INSERT INTO Z VALUES " + strings.Join(rows[i:i+500], ", "))
	}
	checkBuilders(t, "analytic_skew-shaped", skew)
	checkBuilders(t, "emp", openEmpDB(workload.EmpConfig{Emps: 2000}))
	for seed := int64(1); seed <= 20; seed++ {
		db := randomDBWithDeadVersions(seed)
		for _, tab := range db.Catalog().Tables() {
			if tab.System {
				continue
			}
			var rows []string
			for r := 0; r < 6; r++ {
				vals := []string{"NULL", fmt.Sprint(1000 + r)}
				if r%3 != 0 {
					vals[0] = fmt.Sprint(r)
				}
				for _, c := range tab.Columns[2:] {
					switch {
					case r%2 == 0:
						vals = append(vals, "NULL")
					case c.Type == value.KindFloat:
						vals = append(vals, []string{"0.0", "-0.0", "-0.0"}[r/2])
					case c.Type == value.KindInt:
						vals = append(vals, fmt.Sprint(-r))
					default:
						vals = append(vals, fmt.Sprintf("'V%d'", r))
					}
				}
				rows = append(rows, "("+strings.Join(vals, ", ")+")")
			}
			db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES %s", tab.Name, strings.Join(rows[:3], ", ")))
			for _, row := range rows[3:] {
				db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES %s", tab.Name, row))
			}
		}
		checkBuilders(t, fmt.Sprintf("random seed %d", seed), db)
	}
}

// checkBuilders runs both oracles on db: its statistics, then every
// index's build again, and a build on every column, and a unique one on
// SERIAL where the table has one.
func checkBuilders(t *testing.T, name string, db *systemr.DB) {
	t.Helper()
	checkStatsOracle(t, name, db)
	for _, tab := range db.Catalog().Tables() {
		if tab.System {
			continue
		}
		for _, ix := range tab.Indexes {
			unique := ""
			if ix.Unique {
				unique = "UNIQUE "
			}
			checkIndexOracle(t, name, db, "ORACLE_IX", fmt.Sprintf("CREATE %sINDEX ORACLE_IX ON %s (%s)", unique, tab.Name, strings.Join(ix.ColumnNames(), ", ")))
		}
		for _, c := range tab.Columns {
			checkIndexOracle(t, name, db, "ORACLE_C", fmt.Sprintf("CREATE INDEX ORACLE_C ON %s (%s)", tab.Name, c.Name))
		}
		if tab.ColumnIndex("SERIAL") >= 0 {
			checkIndexOracle(t, name, db, "ORACLE_S", fmt.Sprintf("CREATE UNIQUE INDEX ORACLE_S ON %s (SERIAL)", tab.Name))
		}
	}
}

// TestUniqueIndexOverDeletedDuplicate: a unique index builds when the only
// duplicate of a key is a deleted version vacuum has not reclaimed, and
// vacuum later reclaims that version though the index never held it. A live
// duplicate fails the build.
func TestUniqueIndexOverDeletedDuplicate(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE U (A INTEGER, B INTEGER)")
	db.MustExec("INSERT INTO U VALUES (1, 10), (2, 20)")
	db.MustExec("UPDATE U SET B = 11 WHERE A = 1")
	if n := deadVersions(db); n != 1 {
		t.Fatalf("%d delete-marked versions, want the UPDATE's one", n)
	}
	db.MustExec("CREATE UNIQUE INDEX U_A ON U (A)")
	if ix, _ := db.Catalog().Index("U_A"); ix.Tree.Len() != 2 {
		t.Fatalf("U_A holds %d entries, want the 2 live rows", ix.Tree.Len())
	}
	if n := db.Vacuum(); n != 1 {
		t.Fatalf("vacuum reclaimed %d versions, want 1", n)
	}
	res := db.MustExec("SELECT B FROM U WHERE A = 1")
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(11) {
		t.Fatalf("SELECT B WHERE A = 1 read %v, want [[11]]", res.Rows)
	}

	db.MustExec("DROP INDEX U_A")
	db.MustExec("INSERT INTO U VALUES (2, 21)")
	if _, err := db.Exec("CREATE UNIQUE INDEX U_A ON U (A)"); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("unique index over a live duplicate: %v, want a duplicate-key error", err)
	}
	if _, ok := db.Catalog().Index("U_A"); ok {
		t.Fatal("the failed build left index U_A behind")
	}
}

// TestMaintenanceStatementsMeasureTheirScans: on a flushed buffer pool,
// UPDATE STATISTICS and CREATE INDEX report one RSI call per row they read
// and the page fetches of their segment scans, and no rows.
func TestMaintenanceStatementsMeasureTheirScans(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.Pool().Flush()
	db.MustExec("UPDATE STATISTICS")
	if st := db.LastStats(); st.RSICalls != sumNCard(db) || st.PageFetches == 0 || st.Rows != 0 {
		t.Errorf("UPDATE STATISTICS: LastStats = %+v, want %d RSI calls, page fetches and no rows", st, sumNCard(db))
	}
	dept, _ := db.Catalog().Table("DEPT")
	db.Pool().Flush()
	db.MustExec("UPDATE STATISTICS DEPT")
	if st := db.LastStats(); st.RSICalls != 30 || st.PageFetches != int64(dept.Segment.NumPages()) || st.Rows != 0 {
		t.Errorf("UPDATE STATISTICS DEPT: LastStats = %+v, want 30 RSI calls and %d page fetches", st, dept.Segment.NumPages())
	}
	emp, _ := db.Catalog().Table("EMP")
	db.Pool().Flush()
	db.MustExec("CREATE INDEX EMP_SAL ON EMP (SAL)")
	if st := db.LastStats(); st.RSICalls != 300 || st.PageFetches != int64(emp.Segment.NumPages()) || st.Rows != 0 {
		t.Errorf("CREATE INDEX: LastStats = %+v, want 300 RSI calls and %d page fetches", st, emp.Segment.NumPages())
	}
}

// TestStatisticsUnderWriters: writers commit while UPDATE STATISTICS and
// CREATE INDEX run. Every writer transaction keeps W at n rows, and each
// maintenance statement reads under a snapshot taken once every transaction
// before it ended, so every NCARD it publishes is n. After the writers
// stop, the statistics equal a recompute from the reference walk, and a
// new index holds exactly the visible rows.
func TestStatisticsUnderWriters(t *testing.T) {
	const n, writers, rounds = 40, 2, 100
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE W (K INTEGER, V INTEGER)")
	var rows []string
	for k := 0; k < n; k++ {
		rows = append(rows, fmt.Sprintf("(%d, 0)", k))
	}
	db.MustExec("INSERT INTO W VALUES " + strings.Join(rows, ", "))

	// tolerated reports the failures a writer or the maintenance loop moves
	// past: a write conflict or a deadlock abort, or a lock wait that timed
	// out behind the others.
	tolerated := func(err error) bool {
		return errors.Is(err, systemr.ErrWriteConflict) || errors.Is(err, systemr.ErrDeadlock) ||
			errors.Is(err, systemr.ErrLockTimeout) || errors.Is(err, systemr.ErrTxnAborted)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w*rounds + r) % n
				// Move row k: delete it and insert it again with V + 1.
				x := db.Begin()
				_, err := x.Exec(fmt.Sprintf("DELETE FROM W WHERE K = %d", k))
				if err == nil {
					_, err = x.Exec(fmt.Sprintf("INSERT INTO W VALUES (%d, %d)", k, r+1))
				}
				if err == nil {
					err = x.Commit()
				} else {
					_ = x.Rollback()
				}
				if err == nil {
					_, err = db.Exec(fmt.Sprintf("UPDATE W SET V = V + 1 WHERE K = %d", k))
				}
				if err != nil && !tolerated(err) {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	w, _ := db.Catalog().Table("W")
	for stopped := false; !stopped; {
		select {
		case <-done:
			stopped = true
		default:
		}
		if _, err := db.Exec("UPDATE STATISTICS W"); err != nil && !tolerated(err) {
			t.Fatal(err)
		} else if err == nil && w.Stats.NCard != n {
			t.Fatalf("UPDATE STATISTICS under writers: NCARD %d, want %d", w.Stats.NCard, n)
		}
		if _, err := db.Exec("CREATE INDEX W_V ON W (V)"); err == nil {
			db.MustExec("DROP INDEX W_V")
		} else if !tolerated(err) {
			t.Fatal(err)
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkStatsOracle(t, "after the writers", db)
	checkIndexOracle(t, "after the writers", db, "W_V", "CREATE INDEX W_V ON W (V)")
}

// TestCatalogChangeWaitsForIdleTransaction: a transaction holds the shared
// catalog lock from BEGIN, so CREATE INDEX, which indexes only the versions
// its own snapshot sees, waits even for a transaction that has run nothing
// yet — whose older snapshot still sees a row a later commit deleted.
func TestCatalogChangeWaitsForIdleTransaction(t *testing.T) {
	db := systemr.Open(systemr.Config{LockTimeout: 20 * time.Millisecond})
	db.MustExec("CREATE TABLE I (A INTEGER, B INTEGER)")
	var rows []string
	for a := 0; a < 500; a++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", a, 10*a))
	}
	db.MustExec("INSERT INTO I VALUES " + strings.Join(rows, ", "))
	x := db.Begin()
	defer x.Rollback()
	db.MustExec("DELETE FROM I WHERE A = 7")
	if _, err := db.Exec("CREATE INDEX I_A ON I (A)"); !errors.Is(err, systemr.ErrLockTimeout) {
		t.Fatalf("CREATE INDEX beside an idle transaction: %v, want ErrLockTimeout", err)
	}
	res, err := x.Query("SELECT B FROM I WHERE A = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(70) {
		t.Fatalf("the transaction read %v, want the row its snapshot holds", res.Rows)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX I_A ON I (A)")
}

// TestBeginBehindDDLTimesOut: Begin waits for a running DDL statement's
// exclusive catalog lock under Config.LockTimeout like any lock wait. When
// the wait times out, Begin returns a transaction the engine has already
// aborted: it counts one lock timeout, holds no lock, fails every statement
// with ErrTxnAborted, and Rollback acknowledges it.
func TestBeginBehindDDLTimesOut(t *testing.T) {
	db := openDB(systemr.Config{LockTimeout: 20 * time.Millisecond})
	db.MustExec("CREATE TABLE B (A INTEGER)")
	ddl := db.Locks().Acquire([]lock.Request{{Table: compile.CatalogLock, Mode: lock.Exclusive}})
	if ddl == nil {
		t.Fatal("could not take the catalog lock")
	}
	timeouts := db.Locks().LockTimeouts()
	x := db.Begin()
	if n := db.Locks().LockTimeouts() - timeouts; n != 1 {
		t.Fatalf("Begin behind DDL counted %d lock timeouts, want 1", n)
	}
	ddl.Release()
	if _, err := x.Exec("INSERT INTO B VALUES (1)"); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("statement on a timed-out Begin: %v, want ErrTxnAborted", err)
	}
	if err := x.Commit(); !errors.Is(err, systemr.ErrTxnAborted) {
		t.Fatalf("Commit of a timed-out Begin: %v, want ErrTxnAborted", err)
	}
	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	assertClean(t, db)
	y := db.Begin()
	if _, err := y.Exec("INSERT INTO B VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := y.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReservedSegmentNames: segment names beginning with "__" belong to the
// engine. The system catalogs' segments are cleared slot by slot on every
// refresh, so a user table placed in one would lose its rows; CREATE TABLE
// refuses such a name in any case.
func TestReservedSegmentNames(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE K (A INTEGER)")
	db.MustExec("UPDATE STATISTICS")
	for _, seg := range []string{"__SYSCAT_SYSTABLES", "__syscat_syscolumns", "__PRIVATE_0"} {
		text := fmt.Sprintf("CREATE TABLE X (A INTEGER) IN SEGMENT %s", seg)
		if _, err := db.Exec(text); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("%s: %v, want a reserved-name error", text, err)
		}
	}
	db.MustExec("CREATE TABLE X (A INTEGER) IN SEGMENT SHARED_1")
	db.MustExec("INSERT INTO X VALUES (1), (2)")
	db.MustExec("UPDATE STATISTICS")
	if res := db.MustExec("SELECT A FROM X"); len(res.Rows) != 2 {
		t.Fatalf("X holds %v after UPDATE STATISTICS, want its 2 rows", res.Rows)
	}
}

// TestCatalogReadersBesideDDL: DB.Tables (rsql's \d) and DB.PlanSelect read
// table and index statistics and the index list, so each must hold the
// shared catalog lock against UPDATE STATISTICS and CREATE/DROP INDEX, which
// change them. Run with -race: a reader without the lock races the writes.
func TestCatalogReadersBesideDDL(t *testing.T) {
	const rounds = 30
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE R (K INTEGER, V INTEGER)")
	db.MustExec("INSERT INTO R VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	done := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if s := db.Tables(); !strings.Contains(s, "R (K INTEGER, V INTEGER)") {
				readerErr <- fmt.Errorf("Tables() = %q", s)
				return
			}
			if _, err := db.PlanSelect("SELECT K FROM R WHERE V = 20"); err != nil {
				readerErr <- err
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		db.MustExec("UPDATE STATISTICS R")
		db.MustExec("CREATE INDEX R_V ON R (V)")
		db.MustExec("UPDATE STATISTICS")
		db.MustExec("DROP INDEX R_V")
	}
	close(done)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if n := db.Locks().Outstanding(); n != 0 {
		t.Fatalf("%d locks outstanding after the readers", n)
	}
}
