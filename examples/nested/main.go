// Nested queries (Section 6): scalar and set subqueries, correlation, the
// paper's employees-earning-more-than-their-manager examples, and the
// same-value evaluation cache.
package main

import (
	"fmt"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/workload"
)

func main() {
	db := workload.NewEmpDB(workload.EmpConfig{
		Emps: 2000, Depts: 50, Jobs: 10, Seed: 3, ClusterEmpByDno: true,
	})

	// Evaluated-once scalar subquery — the paper's first Section 6 example.
	q1 := "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)"
	run(db, "Above-average earners", q1)

	// IN subquery returning a set of values.
	q2 := `SELECT NAME FROM EMP
	       WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER') AND JOB = 1`
	run(db, "Denver clerks (IN subquery)", q2)

	// Correlated subquery — "employees that earn more than their manager".
	q3 := `SELECT NAME FROM EMP X
	       WHERE SAL > (SELECT SAL FROM EMP WHERE EMPNO = X.MANAGER)`
	run(db, "Earn more than their manager (correlated)", q3)

	// Three-level nesting — "more than their manager's manager".
	q4 := `SELECT NAME FROM EMP X WHERE SAL >
	         (SELECT SAL FROM EMP WHERE EMPNO =
	           (SELECT MANAGER FROM EMP WHERE EMPNO = X.MANAGER))`
	run(db, "Earn more than their manager's manager (3 levels)", q4)

	// The Section 6 cache: with EMP clustered (ordered) on DNO, a subquery
	// correlated on DNO re-evaluates only when the DNO changes.
	q5 := "SELECT NAME FROM EMP X WHERE SAL > (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)"
	run(db, "Above their department's average (cached re-evaluation)", q5)
	fmt.Printf("  → the correlated subquery ran %d times for 2000 candidate tuples,\n",
		db.LastStats().SubqueryEvals)
	fmt.Println("    because the outer scan delivers tuples in DNO order (Section 6).")
}

func run(db *systemr.DB, title, query string) {
	res, err := db.Query(query)
	if err != nil {
		panic(err)
	}
	st := db.LastStats()
	fmt.Printf("%-55s → %5d rows, %4d subquery evals, cost %8.1f\n",
		title, len(res.Rows), st.SubqueryEvals, st.Cost(core.DefaultW))
}
