package systemr_test

import (
	"fmt"

	"systemr"
)

// The examples double as executable documentation: go test verifies their
// output.

func exampleDB() *systemr.DB {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE EMP (NAME VARCHAR, DNO INTEGER, SAL FLOAT)")
	db.MustExec("CREATE INDEX EMP_DNO ON EMP (DNO)")
	db.MustExec(`INSERT INTO EMP VALUES
		('SMITH', 50, 10000.0), ('JONES', 50, 12000.0),
		('BLAKE', 51, 9000.0), ('ADAMS', 52, 15000.0)`)
	db.MustExec("UPDATE STATISTICS")
	return db
}

func ExampleDB_Query() {
	db := exampleDB()
	res, err := db.Query("SELECT NAME, SAL FROM EMP WHERE DNO = 50 ORDER BY SAL DESC")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1])
	}
	// Output:
	// JONES 12000
	// SMITH 10000
}

func ExampleDB_Explain() {
	db := exampleDB()
	plan, err := db.Explain("SELECT NAME FROM EMP WHERE DNO = 51")
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)
	// Output:
	// QUERY BLOCK (main)
	//   PROJECT EMP.NAME  {cost: pages=0.5 rsi=1.0, rows=1.0}
	//     INDEXSCAN EMP via EMP_DNO(DNO) key:[51 .. 51] sarg: (c1 = 51)  {cost: pages=0.5 rsi=1.0, rows=1.0}
}

func ExampleStmt_Open() {
	db := exampleDB()
	stmt, err := db.Prepare("SELECT NAME FROM EMP WHERE SAL > 9500.0 ORDER BY NAME")
	if err != nil {
		panic(err)
	}
	rows, err := stmt.Open() // tuple-at-a-time, as in System R's host programs
	if err != nil {
		panic(err)
	}
	defer rows.Close()
	for {
		row, ok, err := rows.Next()
		if err != nil {
			panic(err)
		}
		if !ok {
			break
		}
		fmt.Println(row[0])
	}
	// Output:
	// ADAMS
	// JONES
	// SMITH
}

func ExampleDB_Exec_aggregation() {
	db := exampleDB()
	res, err := db.Query("SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO HAVING COUNT(*) > 1")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1], row[2])
	}
	// Output:
	// 50 2 11000
}
