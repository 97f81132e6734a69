package workload

// Randomized schemas, data, and queries for differential testing: the
// optimizer (under every configuration ablation) must produce plans whose
// results match the brute-force reference evaluator on these inputs.

import (
	"fmt"
	"math/rand"
	"strings"

	"systemr"
)

// RandomDBConfig controls randomized database generation.
type RandomDBConfig struct {
	Tables  int // default 3
	MaxRows int // default 40 per table
}

// randomMaxCols bounds a random table's data columns (plus K and SERIAL).
const randomMaxCols = 4

// RandomDB builds a small randomized database. Every table Ti has an integer
// join column K (values drawn from a shared small domain so joins produce
// matches), a couple of integer/float/string columns, and a random subset of
// indexes (some unique on a serial column, occasionally clustered).
func RandomDB(rnd *rand.Rand, cfg RandomDBConfig) *systemr.DB {
	if cfg.Tables == 0 {
		cfg.Tables = 3
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = 40
	}
	db := systemr.Open(systemr.Config{})
	for t := 0; t < cfg.Tables; t++ {
		name := fmt.Sprintf("T%d", t)
		nCols := 1 + rnd.Intn(randomMaxCols)
		cols := []string{"K INTEGER", "SERIAL INTEGER"}
		for c := 0; c < nCols; c++ {
			switch rnd.Intn(3) {
			case 0:
				cols = append(cols, fmt.Sprintf("I%d INTEGER", c))
			case 1:
				cols = append(cols, fmt.Sprintf("F%d FLOAT", c))
			default:
				cols = append(cols, fmt.Sprintf("S%d VARCHAR", c))
			}
		}
		seg := ""
		if rnd.Intn(3) == 0 {
			seg = " IN SEGMENT SHARED"
		}
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (%s)%s", name, strings.Join(cols, ", "), seg))

		rows := 1 + rnd.Intn(cfg.MaxRows)
		for r := 0; r < rows; r++ {
			vals := []string{fmt.Sprintf("%d", rnd.Intn(10)), fmt.Sprintf("%d", r)}
			for c := 2; c < len(cols); c++ {
				switch cols[c][0] {
				case 'I':
					vals = append(vals, fmt.Sprintf("%d", rnd.Intn(100)))
				case 'F':
					vals = append(vals, fmt.Sprintf("%d.%d", rnd.Intn(100), rnd.Intn(10)))
				default:
					vals = append(vals, fmt.Sprintf("'V%d'", rnd.Intn(20)))
				}
			}
			db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", ")))
		}

		// Random indexes.
		if rnd.Intn(2) == 0 {
			clustered := ""
			if rnd.Intn(3) == 0 {
				clustered = "CLUSTERED "
			}
			db.MustExec(fmt.Sprintf("CREATE %sINDEX %s_K ON %s (K)", clustered, name, name))
		}
		if rnd.Intn(2) == 0 {
			db.MustExec(fmt.Sprintf("CREATE UNIQUE INDEX %s_SERIAL ON %s (SERIAL)", name, name))
		}
		if len(cols) > 2 && rnd.Intn(2) == 0 {
			colName := strings.Fields(cols[2])[0]
			db.MustExec(fmt.Sprintf("CREATE INDEX %s_C0 ON %s (%s, SERIAL)", name, name, colName))
		}
	}
	if rnd.Intn(4) != 0 { // usually analyzed, sometimes default statistics
		db.MustExec("UPDATE STATISTICS")
	}
	return db
}

// tableColumns mirrors RandomDB's schema generation to build predicates.
func tableColumns(db *systemr.DB, table string) []string {
	t, ok := db.Catalog().Table(table)
	if !ok {
		return nil
	}
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// RandomQuery generates a SELECT over nTables relations of a RandomDB, with
// random predicates (equality, range, BETWEEN, IN, OR-trees, NOT), random
// join predicates on K/SERIAL, and occasional GROUP BY / ORDER BY /
// DISTINCT / subqueries.
func RandomQuery(rnd *rand.Rand, db *systemr.DB, nTables int, allowSubqueries bool) string {
	aliases := make([]string, nTables)
	tables := make([]string, nTables)
	from := make([]string, nTables)
	for i := 0; i < nTables; i++ {
		tables[i] = fmt.Sprintf("T%d", rnd.Intn(nTables))
		aliases[i] = fmt.Sprintf("A%d", i)
		from[i] = tables[i] + " " + aliases[i]
	}

	var preds []string
	// Join predicates chaining the relations (usually).
	for i := 1; i < nTables; i++ {
		if rnd.Intn(5) != 0 {
			prev := rnd.Intn(i)
			preds = append(preds, fmt.Sprintf("%s.K = %s.K", aliases[prev], aliases[i]))
		}
	}
	// Local predicates.
	nPreds := rnd.Intn(3)
	for p := 0; p < nPreds; p++ {
		a := rnd.Intn(nTables)
		preds = append(preds, randomPredicate(rnd, db, tables[a], aliases[a], allowSubqueries, tables))
	}

	sel := fmt.Sprintf("%s.K", aliases[0])
	groupBy, orderBy, distinct := "", "", ""
	switch rnd.Intn(5) {
	case 0:
		sel = fmt.Sprintf("%s.K, COUNT(*), MIN(%s.SERIAL)", aliases[0], aliases[nTables-1])
		groupBy = fmt.Sprintf(" GROUP BY %s.K", aliases[0])
		if rnd.Intn(2) == 0 {
			groupBy += fmt.Sprintf(" HAVING COUNT(*) > %d", rnd.Intn(3))
		}
		if rnd.Intn(2) == 0 {
			orderBy = fmt.Sprintf(" ORDER BY %s.K", aliases[0])
		}
	case 1:
		sel = fmt.Sprintf("%s.K, %s.SERIAL", aliases[0], aliases[nTables-1])
		orderBy = fmt.Sprintf(" ORDER BY %s.K", aliases[0])
		if rnd.Intn(2) == 0 {
			orderBy += fmt.Sprintf(", %s.SERIAL DESC", aliases[nTables-1])
		}
	case 2:
		distinct = "DISTINCT "
	}

	where := ""
	if len(preds) > 0 {
		where = " WHERE " + strings.Join(preds, " AND ")
	}
	return fmt.Sprintf("SELECT %s%s FROM %s%s%s%s",
		distinct, sel, strings.Join(from, ", "), where, groupBy, orderBy)
}

func randomPredicate(rnd *rand.Rand, db *systemr.DB, table, alias string, allowSubqueries bool, allTables []string) string {
	cols := tableColumns(db, table)
	col := cols[rnd.Intn(len(cols))]
	ref := alias + "." + col
	isString := col[0] == 'S' && col != "SERIAL"
	lit := func() string {
		switch {
		case isString:
			return fmt.Sprintf("'V%d'", rnd.Intn(20))
		case col[0] == 'F':
			return fmt.Sprintf("%d.%d", rnd.Intn(100), rnd.Intn(10))
		case col == "K":
			return fmt.Sprintf("%d", rnd.Intn(10))
		default:
			return fmt.Sprintf("%d", rnd.Intn(100))
		}
	}
	switch rnd.Intn(8) {
	case 0:
		return fmt.Sprintf("%s = %s", ref, lit())
	case 1:
		op := []string{"<", "<=", ">", ">=", "<>"}[rnd.Intn(5)]
		return fmt.Sprintf("%s %s %s", ref, op, lit())
	case 2:
		if isString {
			return fmt.Sprintf("%s BETWEEN 'V0' AND 'V9'", ref)
		}
		lo, hi := rnd.Intn(50), 50+rnd.Intn(50)
		return fmt.Sprintf("%s BETWEEN %d AND %d", ref, lo, hi)
	case 3:
		return fmt.Sprintf("%s IN (%s, %s, %s)", ref, lit(), lit(), lit())
	case 4:
		return fmt.Sprintf("(%s = %s OR %s = %s)", ref, lit(), ref, lit())
	case 5:
		return fmt.Sprintf("NOT %s = %s", ref, lit())
	case 6:
		if allowSubqueries {
			other := allTables[rnd.Intn(len(allTables))]
			if rnd.Intn(2) == 0 {
				return fmt.Sprintf("%s.K IN (SELECT K FROM %s WHERE SERIAL < %d)", alias, other, rnd.Intn(30))
			}
			return fmt.Sprintf("%s.SERIAL > (SELECT MIN(SERIAL) FROM %s WHERE K = %s.K)", alias, other, alias)
		}
		return fmt.Sprintf("%s = %s", ref, lit())
	default:
		return fmt.Sprintf("(%s > %s AND %s <> %s)", ref, lit(), ref, lit())
	}
}
