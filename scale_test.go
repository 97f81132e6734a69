package systemr_test

import (
	"fmt"
	"testing"

	"systemr"
	"systemr/internal/workload"
)

// TestScale loads a 50k-row EMP database and validates query results against
// independently computed counts — a smoke test that page management, B-trees,
// the optimizer, and the executor hold up beyond toy sizes.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const emps, depts, jobs = 50000, 500, 40
	db := openEmpDB(workload.EmpConfig{
		Emps: emps, Depts: depts, Jobs: jobs, Seed: 71, ClusterEmpByDno: true,
		Engine: systemr.Config{BufferPages: 256},
	})

	// Full count.
	res, err := db.Query("SELECT COUNT(*) FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != emps {
		t.Fatalf("count: %v", res.Rows[0][0])
	}

	// Per-department counts sum back to the total, via the clustered index.
	res, err = db.Query("SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != depts {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	var sum int64
	for _, r := range res.Rows {
		sum += r[1].(int64)
	}
	if sum != emps {
		t.Fatalf("group counts sum to %d", sum)
	}

	// Unique-index point lookups across the key space.
	for _, k := range []int{0, 1, emps / 2, emps - 1} {
		res, err = db.Query(fmt.Sprintf("SELECT NAME FROM EMP WHERE EMPNO = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("EMPNO=%d: %d rows", k, len(res.Rows))
		}
		if got := db.LastStats().PageFetches; got > 10 {
			t.Fatalf("point lookup fetched %d pages", got)
		}
	}

	// Join result count matches a computed expectation: every employee has
	// exactly one department and one job.
	res, err = db.Query(`SELECT COUNT(*) FROM EMP, DEPT, JOB
		WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != emps {
		t.Fatalf("3-way join count: %v", res.Rows[0][0])
	}

	// A selective range via the SAL index agrees with a residual-only scan.
	res, err = db.Query("SELECT COUNT(*) FROM EMP WHERE SAL BETWEEN 20000 AND 21000")
	if err != nil {
		t.Fatal(err)
	}
	viaIndex := res.Rows[0][0].(int64)
	res, err = db.Query("SELECT COUNT(*) FROM EMP WHERE SAL + 0 BETWEEN 20000 AND 21000")
	if err != nil {
		t.Fatal(err)
	}
	if viaIndex != res.Rows[0][0].(int64) {
		t.Fatalf("index path %d != residual path %v", viaIndex, res.Rows[0][0])
	}

	// DML at scale: delete one department, counts adjust.
	res, err = db.Query("SELECT COUNT(*) FROM EMP WHERE DNO = 250")
	if err != nil {
		t.Fatal(err)
	}
	inDept := res.Rows[0][0].(int64)
	del := db.MustExec("DELETE FROM EMP WHERE DNO = 250")
	if int64(del.Affected) != inDept {
		t.Fatalf("deleted %d, expected %d", del.Affected, inDept)
	}
	res, _ = db.Query("SELECT COUNT(*) FROM EMP")
	if res.Rows[0][0].(int64) != emps-inDept {
		t.Fatalf("count after delete: %v", res.Rows[0][0])
	}
}
