package systemr_test

import (
	"fmt"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/workload"
)

// TestDMLUsesAccessPaths: a selective DELETE must locate its targets through
// the index (few page fetches), not a full relation walk.
func TestDMLUsesAccessPaths(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{
		Emps: 8000, Depts: 100, Jobs: 20, Seed: 41, ClusterEmpByDno: true,
	})
	emp, _ := db.Catalog().Table("EMP")
	tcard := emp.Stats.TCard

	db.Pool().Flush()
	db.Pool().Stats().Reset()
	res := db.MustExec("DELETE FROM EMP WHERE EMPNO = 1234")
	if res.Affected != 1 {
		t.Fatalf("affected %d", res.Affected)
	}
	fetched := db.Pool().Stats().Snapshot().PageFetches
	if fetched >= int64(tcard)/2 {
		t.Fatalf("unique-key DELETE fetched %d pages (TCARD %d): not using the index", fetched, tcard)
	}

	db.Pool().Flush()
	db.Pool().Stats().Reset()
	res = db.MustExec("UPDATE EMP SET SAL = SAL + 1 WHERE DNO = 3")
	if res.Affected == 0 {
		t.Fatal("update matched nothing")
	}
	fetched = db.Pool().Stats().Snapshot().PageFetches
	if fetched >= int64(tcard)/2 {
		t.Fatalf("clustered-range UPDATE fetched %d pages (TCARD %d)", fetched, tcard)
	}
}

// TestDMLCorrectness: DELETE/UPDATE against independently computed
// expectations, including subqueries in WHERE and SET.
func TestDMLCorrectness(t *testing.T) {
	db := newEmpDeptJobDB(t)

	// Count expected victims first.
	res, _ := db.Query("SELECT COUNT(*) FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)")
	want := res.Rows[0][0].(int64)
	del := db.MustExec("DELETE FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)")
	if int64(del.Affected) != want {
		t.Fatalf("deleted %d, want %d", del.Affected, want)
	}
	res, _ = db.Query("SELECT COUNT(*) FROM EMP")
	if res.Rows[0][0].(int64) != 300-want {
		t.Fatalf("remaining %v", res.Rows[0][0])
	}

	// UPDATE with subquery in SET: everyone paid the old maximum.
	res, _ = db.Query("SELECT MAX(SAL) FROM EMP")
	oldMax := res.Rows[0][0].(float64)
	res, _ = db.Query("SELECT COUNT(*) FROM EMP WHERE DNO = 9")
	inDept := res.Rows[0][0].(int64)
	up := db.MustExec("UPDATE EMP SET SAL = (SELECT MAX(SAL) FROM EMP) WHERE DNO = 9")
	if int64(up.Affected) != inDept || inDept == 0 {
		t.Fatalf("updated %d, dept has %d", up.Affected, inDept)
	}
	res, _ = db.Query("SELECT MIN(SAL), MAX(SAL) FROM EMP WHERE DNO = 9")
	if res.Rows[0][0].(float64) != oldMax || res.Rows[0][1].(float64) != oldMax {
		t.Fatalf("set-subquery results: %v (want %v)", res.Rows[0], oldMax)
	}
}

// TestDMLIndexMaintenance: after heavy churn, index scans agree with segment
// scans.
func TestDMLIndexMaintenance(t *testing.T) {
	db := newEmpDeptJobDB(t)
	for i := 0; i < 5; i++ {
		db.MustExec(fmt.Sprintf("DELETE FROM EMP WHERE DNO = %d", i*3+1))
		db.MustExec(fmt.Sprintf("UPDATE EMP SET DNO = %d WHERE DNO = %d", i*3+1, i*3+2))
		db.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES ('X%02d', %d, 5, 1.0)", i, i*3+2))
	}
	db.MustExec("UPDATE STATISTICS")
	// Force both access paths and compare counts per DNO.
	for d := 1; d <= 15; d++ {
		viaIndex, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM EMP WHERE DNO = %d", d))
		if err != nil {
			t.Fatal(err)
		}
		// MANAGER-style unindexed predicate forces residual evaluation over a
		// segment scan: DNO+0 = d is not sargable.
		viaSeg, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM EMP WHERE DNO + 0 = %d", d))
		if err != nil {
			t.Fatal(err)
		}
		if viaIndex.Rows[0][0] != viaSeg.Rows[0][0] {
			t.Fatalf("DNO=%d: index path %v != segment path %v", d, viaIndex.Rows[0][0], viaSeg.Rows[0][0])
		}
	}
}

// TestDeleteEverything and reinsertion into reused space.
func TestDeleteEverythingAndReuse(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res := db.MustExec("DELETE FROM EMP")
	if res.Affected != 300 {
		t.Fatalf("deleted %d", res.Affected)
	}
	q, _ := db.Query("SELECT COUNT(*) FROM EMP")
	if q.Rows[0][0].(int64) != 0 {
		t.Fatal("rows remain")
	}
	db.MustExec("INSERT INTO EMP VALUES ('BACK', 1, 5, 9.0)")
	q, _ = db.Query("SELECT NAME FROM EMP WHERE DNO = 1")
	if len(q.Rows) != 1 || q.Rows[0][0].(string) != "BACK" {
		t.Fatalf("reinserted row: %v", q.Rows)
	}
}

// TestHalloweenProblem: updating the very column an index-range plan scans
// must not revisit moved tuples. EMP_SAL indexes SAL; doubling salaries below
// a bound must double each exactly once even though the new values land
// ahead of the scan range.
func TestHalloweenProblem(t *testing.T) {
	db := openEmpDB(workload.EmpConfig{Emps: 1000, Depts: 20, Jobs: 5, Seed: 47})
	res, _ := db.Query("SELECT COUNT(*) FROM EMP WHERE SAL < 20000")
	below := res.Rows[0][0].(int64)
	if below == 0 {
		t.Fatal("need salaries below the bound")
	}
	res, _ = db.Query("SELECT SUM(SAL) FROM EMP")
	sumBefore := res.Rows[0][0].(float64)
	res, _ = db.Query("SELECT SUM(SAL) FROM EMP WHERE SAL < 20000")
	sumBelow := res.Rows[0][0].(float64)

	up := db.MustExec("UPDATE EMP SET SAL = SAL * 2 WHERE SAL < 20000")
	if int64(up.Affected) != below {
		t.Fatalf("updated %d, want %d", up.Affected, below)
	}
	res, _ = db.Query("SELECT SUM(SAL) FROM EMP")
	sumAfter := res.Rows[0][0].(float64)
	// Exactly one doubling: total grows by the below-bound sum, no more.
	if diff := sumAfter - sumBefore - sumBelow; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum drifted by %v: tuples updated more than once", diff)
	}
}

// TestUpdateUniqueViolationSurfacesError: without logging/recovery the
// statement fails partway (documented); the error must surface rather than
// corrupt silently.
func TestUpdateUniqueViolationSurfacesError(t *testing.T) {
	db := newEmpDeptJobDB(t)
	db.MustExec("CREATE TABLE U (K INTEGER)")
	db.MustExec("CREATE UNIQUE INDEX U_K ON U (K)")
	db.MustExec("INSERT INTO U VALUES (1), (2)")
	if _, err := db.Exec("UPDATE U SET K = 9"); err == nil {
		t.Fatal("setting both keys to 9 must violate the unique index")
	}
}

// TestExplainDML: EXPLAIN shows the access path a DELETE or UPDATE will use
// to locate its targets.
func TestExplainDML(t *testing.T) {
	db := newEmpDeptJobDB(t)
	res, err := db.Exec("EXPLAIN DELETE FROM EMP WHERE DNO = 7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "EMP_DNO") {
		t.Fatalf("delete plan should use the DNO index:\n%s", res.Plan)
	}
	res, err = db.Exec("EXPLAIN UPDATE EMP SET SAL = SAL + 1 WHERE NAME = 'EMP000'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "SEGSCAN") {
		t.Fatalf("update on unindexed column should segment-scan:\n%s", res.Plan)
	}
}

// TestInsertValuesOperandTypes: INSERT VALUES rejects a non-numeric operand
// of arithmetic or negation with the same error SELECT and UPDATE give, and
// stores nothing; NULL operands still pass.
func TestInsertValuesOperandTypes(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A VARCHAR, B INTEGER)")
	db.MustExec("INSERT INTO T VALUES ('x', 1)")
	for _, c := range []struct{ expr, want string }{
		{"-'abc'", "semantic error: cannot negate VARCHAR value 'abc'"},
		{"'a' * 2", "semantic error: arithmetic on non-numeric VARCHAR 'a'"},
		{"'a' + 'b'", "semantic error: arithmetic on non-numeric VARCHAR 'a'"},
	} {
		for _, stmt := range []string{
			"INSERT INTO T VALUES (" + c.expr + ", 2)",
			"SELECT " + c.expr + " FROM T",
			"UPDATE T SET A = " + c.expr,
		} {
			if _, err := db.Exec(stmt); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want %q", stmt, err, c.want)
			}
		}
	}
	db.MustExec("INSERT INTO T VALUES (NULL, -NULL + 1)")
	res, err := db.Query("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != int64(2) {
		t.Fatalf("rows = %v, want 2: the rejected INSERTs stored rows", got)
	}
}

// TestLastStatsEveryStatement: every statement publishes its own
// measurements. A scan runs before each statement, so one that published
// nothing would leave the scan's RSI calls in LastStats.
func TestLastStatsEveryStatement(t *testing.T) {
	db := newEmpDeptJobDB(t)
	for _, c := range []struct {
		stmt string
		want systemr.ExecStats
	}{
		{"CREATE TABLE T (A INTEGER)", systemr.ExecStats{}},
		{"INSERT INTO T VALUES (1), (2), (3)", systemr.ExecStats{Rows: 3}},
		// UPDATE STATISTICS scans every table: its RSI calls are checked
		// against NCARD below, its fetches depend on the buffer pool.
		{"UPDATE STATISTICS", systemr.ExecStats{}},
		{"EXPLAIN SELECT NAME FROM EMP WHERE DNO = 3", systemr.ExecStats{}},
		{"EXPLAIN DELETE FROM EMP WHERE DNO = 3", systemr.ExecStats{}},
	} {
		if _, err := db.Query("SELECT NAME FROM EMP"); err != nil {
			t.Fatal(err)
		}
		if db.LastStats().RSICalls == 0 {
			t.Fatal("the scan measured no RSI calls")
		}
		db.MustExec(c.stmt)
		got := db.LastStats()
		if c.stmt == "UPDATE STATISTICS" {
			if got.RSICalls != sumNCard(db) || got.Rows != 0 {
				t.Errorf("%s: LastStats = %+v, want %d RSI calls and no rows", c.stmt, got, sumNCard(db))
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: LastStats = %+v, want %+v", c.stmt, got, c.want)
		}
	}
}

// sumNCard is the cardinality of every analyzed table: the RSI calls of an
// UPDATE STATISTICS that read them all.
func sumNCard(db *systemr.DB) int64 {
	var n int64
	for _, t := range db.Catalog().Tables() {
		n += int64(t.Stats.NCard)
	}
	return n
}

// TestLastStatsDMLMatchesSelect: "retrieval for data manipulation is treated
// similarly", so a DELETE or UPDATE makes exactly the RSI calls and logical
// reads of SELECT * with the same predicate on the same data, its Rows are
// the rows it affected, and the statement counters grow by its numbers.
func TestLastStatsDMLMatchesSelect(t *testing.T) {
	db := newEmpDeptJobDB(t)
	for _, c := range []struct{ dml, where string }{
		{"DELETE FROM EMP", "WHERE DNO = 3"},
		{"UPDATE EMP SET SAL = SAL + 1", "WHERE JOB = 6 AND SAL > 11000"},
		{"UPDATE EMP SET DNO = 3", "WHERE DNO + 0 = 4"},
		{"DELETE FROM EMP", "WHERE SAL > (SELECT AVG(SAL) FROM EMP)"},
	} {
		if _, err := db.Query("SELECT * FROM EMP " + c.where); err != nil {
			t.Fatal(err)
		}
		sel := db.LastStats()
		if sel.Rows == 0 {
			t.Fatalf("%s matches no row", c.where)
		}
		// A different statement in between: stale stats cannot pass.
		if _, err := db.Query("SELECT * FROM JOB"); err != nil {
			t.Fatal(err)
		}
		before := sampleMap(db)
		res := db.MustExec(c.dml + " " + c.where)
		got := db.LastStats()
		if got.RSICalls != sel.RSICalls || got.LogicalReads != sel.LogicalReads {
			t.Errorf("%s %s: RSI calls %d, logical reads %d; SELECT * made %d and %d",
				c.dml, c.where, got.RSICalls, got.LogicalReads, sel.RSICalls, sel.LogicalReads)
		}
		if got.Rows != res.Affected || got.Rows != sel.Rows {
			t.Errorf("%s %s: Rows = %d, affected %d, SELECT * returned %d", c.dml, c.where, got.Rows, res.Affected, sel.Rows)
		}
		after := sampleMap(db)
		for name, want := range map[string]int64{
			"systemr_statement_rsi_calls_total": got.RSICalls,
			"systemr_statement_rows_total":      int64(got.Rows),
		} {
			if grew := after[name].Value - before[name].Value; grew != float64(want) {
				t.Errorf("%s %s: %s grew by %g, want %d", c.dml, c.where, name, grew, want)
			}
		}
	}
}

// TestUpdateSetCheckedAtAnalysis: whether an UPDATE is valid must not depend
// on the rows it matches, so a SET value its column cannot store fails
// whether or not the WHERE clause matches a row, and so does a column
// assigned twice. INTEGER into FLOAT and NULL still store.
func TestUpdateSetCheckedAtAnalysis(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER, B INTEGER, F FLOAT)")
	db.MustExec("INSERT INTO T VALUES (1, 2, 1.5)")
	for _, c := range []struct{ stmt, want string }{
		{"UPDATE T SET A = 'zz' WHERE B = 99", "semantic error: cannot store VARCHAR 'zz' in INTEGER column A"},
		{"UPDATE T SET A = 'zz' WHERE B = 2", "semantic error: cannot store VARCHAR 'zz' in INTEGER column A"},
		{"UPDATE T SET A = F WHERE B = 99", "semantic error: cannot store FLOAT T.F in INTEGER column A"},
		{"UPDATE T SET A = F WHERE B = 2", "semantic error: cannot store FLOAT T.F in INTEGER column A"},
		{"UPDATE T SET A = 5, A = 6", "semantic error: column A is assigned more than once"},
		{"UPDATE T SET F = A + 1, A = NULL WHERE B = 2", ""},
	} {
		_, err := db.Exec(c.stmt)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.stmt, err, c.want)
		}
	}
	res, err := db.Query("SELECT A, B, F FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[<nil> 2 2]]" {
		t.Fatalf("rows = %s, want [[<nil> 2 2]]", got)
	}
}
