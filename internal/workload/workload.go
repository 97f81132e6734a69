// Package workload generates the databases and query sets used by the
// examples, the differential tests, and the benchmark harness: the paper's
// EMP/DEPT/JOB schema (Figure 1) at configurable scale, and randomized
// schemas/queries for property-based testing of the optimizer.
package workload

import (
	"fmt"
	"math/rand"

	"systemr"
)

// EmpConfig scales the Figure 1 database.
type EmpConfig struct {
	Emps  int // default 1000
	Depts int // default 50
	Jobs  int // default 10
	Seed  int64
	// ClusterEmpByDno loads EMP in DNO order and declares EMP_DNO clustered,
	// reproducing the paper's clustered-index scenarios.
	ClusterEmpByDno bool
	// SharedSegment stores DEPT and JOB in one segment so P(T) < 1.
	SharedSegment bool
	// NoStatistics skips UPDATE STATISTICS, exercising the paper's
	// "lack of statistics implies the relation is small" defaults.
	NoStatistics bool
	// Engine is the database's configuration (buffer pool size, governor
	// budgets, timeouts), used as given. Note the limits also govern the
	// loading statements, so keep them above the per-statement cost of a
	// single-row INSERT.
	Engine systemr.Config
}

func (c EmpConfig) withDefaults() EmpConfig {
	if c.Emps == 0 {
		c.Emps = 1000
	}
	if c.Depts == 0 {
		c.Depts = 50
	}
	if c.Jobs == 0 {
		c.Jobs = 10
	}
	return c
}

// JobTitles name the first ten JOB tuples; Figure 1's examples use CLERK.
var JobTitles = []string{"CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER", "MANAGER", "ANALYST", "DRIVER", "NURSE", "SMITH"}

// Locations cycle through DEPT.LOC; Figure 1's example uses DENVER.
var Locations = []string{"DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"}

// NewEmpDB creates and loads the EMP/DEPT/JOB database:
//
//	EMP (NAME, DNO, JOB, SAL, MANAGER, EMPNO)  indexes: EMP_DNO, EMP_JOB, EMP_SAL, EMP_EMPNO (unique)
//	DEPT (DNO, DNAME, LOC)                     indexes: DEPT_DNO (unique)
//	JOB (JOB, TITLE)                           indexes: JOB_JOB (unique), JOB_TITLE
func NewEmpDB(cfg EmpConfig) *systemr.DB {
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	db := systemr.Open(cfg.Engine)

	seg := ""
	if cfg.SharedSegment {
		seg = " IN SEGMENT SHARED"
	}
	db.MustExec("CREATE TABLE EMP (NAME VARCHAR, DNO INTEGER, JOB INTEGER, SAL FLOAT, MANAGER INTEGER, EMPNO INTEGER)")
	db.MustExec("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR, LOC VARCHAR)" + seg)
	db.MustExec("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR)" + seg)

	for j := 0; j < cfg.Jobs; j++ {
		title := fmt.Sprintf("JOB%02d", j)
		if j < len(JobTitles) {
			title = JobTitles[j]
		}
		db.MustExec(fmt.Sprintf("INSERT INTO JOB VALUES (%d, '%s')", j+1, title))
	}
	for d := 1; d <= cfg.Depts; d++ {
		db.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'DEPT%03d', '%s')",
			d, d, Locations[d%len(Locations)]))
	}

	// Employee rows, optionally physically clustered by DNO.
	type emp struct {
		name            string
		dno, job, empno int
		sal             float64
		manager         int
	}
	emps := make([]emp, cfg.Emps)
	for e := range emps {
		emps[e] = emp{
			name:    fmt.Sprintf("EMP%05d", e),
			dno:     rnd.Intn(cfg.Depts) + 1,
			job:     rnd.Intn(cfg.Jobs) + 1,
			sal:     10000 + float64(rnd.Intn(40000)),
			manager: rnd.Intn(cfg.Emps),
			empno:   e,
		}
	}
	if cfg.ClusterEmpByDno {
		// Insertion in key order yields the physical proximity the paper
		// calls clustering.
		for d := 1; d <= cfg.Depts; d++ {
			for _, e := range emps {
				if e.dno == d {
					insertEmp(db, e.name, e.dno, e.job, e.sal, e.manager, e.empno)
				}
			}
		}
	} else {
		for _, e := range emps {
			insertEmp(db, e.name, e.dno, e.job, e.sal, e.manager, e.empno)
		}
	}

	if cfg.ClusterEmpByDno {
		db.MustExec("CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO)")
	} else {
		db.MustExec("CREATE INDEX EMP_DNO ON EMP (DNO)")
	}
	db.MustExec("CREATE INDEX EMP_JOB ON EMP (JOB)")
	db.MustExec("CREATE INDEX EMP_SAL ON EMP (SAL)")
	db.MustExec("CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)")
	db.MustExec("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")
	db.MustExec("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")
	db.MustExec("CREATE INDEX JOB_TITLE ON JOB (TITLE)")
	if !cfg.NoStatistics {
		db.MustExec("UPDATE STATISTICS")
	}
	return db
}

func insertEmp(db *systemr.DB, name string, dno, job int, sal float64, manager, empno int) {
	db.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES ('%s', %d, %d, %.1f, %d, %d)",
		name, dno, job, sal, manager, empno))
}

// Figure1Query is the example join of the paper (Figure 1).
const Figure1Query = `SELECT NAME, TITLE, SAL, DNAME
FROM EMP, DEPT, JOB
WHERE TITLE = 'CLERK' AND LOC = 'DENVER'
  AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB`
