package systemr_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"systemr"
	"systemr/internal/testutil"
	"systemr/internal/workload"
)

// testLockTimeout bounds every lock wait of a test database, so a leaked
// table lock fails the statement that waits on it with ErrLockTimeout
// instead of hanging the test binary. A test that sets its own
// LockTimeout keeps it.
const testLockTimeout = 10 * time.Second

// withLockTimeout returns cfg with testLockTimeout when it sets none.
func withLockTimeout(cfg systemr.Config) systemr.Config {
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = testLockTimeout
	}
	return cfg
}

// openDB, openEmpDB and openSkewDB are systemr.Open, workload.NewEmpDB and
// workload.NewSkewDB with withLockTimeout applied to the engine config.
func openDB(cfg systemr.Config) *systemr.DB { return systemr.Open(withLockTimeout(cfg)) }

func openEmpDB(cfg workload.EmpConfig) *systemr.DB {
	cfg.Engine = withLockTimeout(cfg.Engine)
	return workload.NewEmpDB(cfg)
}

func openSkewDB(cfg workload.SkewConfig) (*systemr.DB, int64) {
	cfg.Engine = withLockTimeout(cfg.Engine)
	return workload.NewSkewDB(cfg)
}

// newEmpDeptJobDB loads the paper's Figure 1 schema: EMP, DEPT, JOB with the
// indexes the example discusses.
func newEmpDeptJobDB(t testing.TB) *systemr.DB {
	t.Helper()
	db := openDB(systemr.Config{BufferPages: 32})
	testutil.AssertNoLeaks(t, db.Pool())
	db.MustExec("CREATE TABLE EMP (NAME VARCHAR, DNO INTEGER, JOB INTEGER, SAL FLOAT)")
	db.MustExec("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR)")
	db.MustExec("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR)")
	db.MustExec("CREATE INDEX EMP_DNO ON EMP (DNO)")
	db.MustExec("CREATE INDEX EMP_JOB ON EMP (JOB)")
	db.MustExec("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")
	db.MustExec("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")
	jobs := []struct {
		id    int
		title string
	}{{5, "CLERK"}, {6, "TYPIST"}, {9, "SALES"}, {12, "MECHANIC"}}
	for _, j := range jobs {
		db.MustExec(fmt.Sprintf("INSERT INTO JOB VALUES (%d, '%s')", j.id, j.title))
	}
	locs := []string{"DENVER", "SAN JOSE", "TUCSON"}
	for d := 1; d <= 30; d++ {
		db.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'DEPT%02d', '%s')", d, d, locs[d%3]))
	}
	for e := 0; e < 300; e++ {
		job := jobs[e%4].id
		dno := e%30 + 1
		db.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES ('EMP%03d', %d, %d, %d.0)", e, dno, job, 10000+e*10))
	}
	db.MustExec("UPDATE STATISTICS")
	return db
}

func TestSmokeSingleRelation(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res, err := db.Query("SELECT NAME, SAL FROM EMP WHERE DNO = 7 ORDER BY SAL DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	prev := res.Rows[0][1].(float64)
	for _, r := range res.Rows[1:] {
		if r[1].(float64) > prev {
			t.Fatalf("not sorted descending: %v", res.Rows)
		}
		prev = r[1].(float64)
	}
}

func TestSmokeFigure1Join(t *testing.T) {
	db := newEmpDeptJobDB(t)
	q := `SELECT NAME, TITLE, SAL, DNAME
	      FROM EMP, DEPT, JOB
	      WHERE TITLE='CLERK' AND LOC='DENVER'
	        AND EMP.DNO=DEPT.DNO AND EMP.JOB=JOB.JOB`
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Clerks are JOB=5 (employees 0,4,8,...); Denver departments are
	// d%3 == 0.
	want := 0
	for e := 0; e < 300; e += 4 {
		if (e%30+1)%3 == 0 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].(string) != "CLERK" {
			t.Fatalf("non-clerk in result: %v", r)
		}
	}
	txt, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "JOIN") {
		t.Fatalf("explain lacks a join:\n%s", txt)
	}
	t.Logf("plan:\n%s", txt)
}

func TestSmokeGroupByAndAggregates(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res, err := db.Query("SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("want 30 groups, got %d", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 1 || res.Rows[0][1].(int64) != 10 {
		t.Fatalf("bad first group: %v", res.Rows[0])
	}
}

func TestSmokeNestedQueries(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res, err := db.Query(
		"SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP) AND DNO IN (SELECT DNO FROM DEPT WHERE LOC='DENVER')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected some rows")
	}
	// Correlated subquery: employees earning more than their department's
	// average.
	res2, err := db.Query(
		"SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 150 {
		t.Fatalf("want 150 above-dept-average employees, got %d", len(res2.Rows))
	}
}

func TestSmokeDML(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res := db.MustExec("DELETE FROM EMP WHERE DNO = 7")
	if res.Affected != 10 {
		t.Fatalf("want 10 deleted, got %d", res.Affected)
	}
	res = db.MustExec("UPDATE EMP SET SAL = SAL * 2 WHERE DNO = 8")
	if res.Affected != 10 {
		t.Fatalf("want 10 updated, got %d", res.Affected)
	}
	q, err := db.Query("SELECT COUNT(*), MIN(SAL) FROM EMP WHERE DNO = 8")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0].(int64) != 10 {
		t.Fatalf("bad count after update: %v", q.Rows[0])
	}
	if q.Rows[0][1].(float64) < 20000 {
		t.Fatalf("salary not doubled: %v", q.Rows[0])
	}
}

func TestUpdateStatisticsPerTable(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.MustExec("INSERT INTO DEPT VALUES (99, 'NEW', 'NOWHERE')")
	// Refresh only JOB: DEPT's stats stay stale.
	db.MustExec("UPDATE STATISTICS JOB")
	dept, _ := db.Catalog().Table("DEPT")
	if dept.Stats.NCard != 30 {
		t.Fatalf("DEPT stats should be stale at 30, got %d", dept.Stats.NCard)
	}
	db.MustExec("UPDATE STATISTICS DEPT")
	if dept.Stats.NCard != 31 {
		t.Fatalf("DEPT stats should now be 31, got %d", dept.Stats.NCard)
	}
	if _, err := db.Exec("UPDATE STATISTICS NOPE"); err == nil {
		t.Fatal("unknown table must fail")
	}
}
