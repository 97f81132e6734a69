package main

import (
	"fmt"
	"math/rand"
	"sort"

	"systemr"
	"systemr/internal/value"
)

// point_lookup: the Figure 1 schema (EMP/DEPT/JOB), everything resident,
// every statement prepared. Parse, semantic analysis and optimization are
// bypassed and the executor touches a handful of tuples, so the statement
// lifecycle, btree.Seek and the buffer-pool hit path do nearly all the work.

const (
	plPoint uint8 = iota // unique-key point select
	plDept               // non-unique index equality + residual
	plRange              // 10-row BETWEEN on the unique key
	plJoin               // two-table unique-key nested-loop join
)

var plTexts = [...]string{
	plPoint: "SELECT EMPNO, NAME, SAL FROM EMP WHERE EMPNO = ?",
	plDept:  "SELECT EMPNO, SAL FROM EMP WHERE DNO = ? AND SAL > ?",
	plRange: "SELECT EMPNO, NAME FROM EMP WHERE EMPNO BETWEEN ? AND ?",
	plJoin:  "SELECT EMP.EMPNO, DEPT.DNO, DNAME FROM EMP, DEPT WHERE EMP.EMPNO = ? AND EMP.DNO = DEPT.DNO",
}

type pointLookup struct {
	emps, depts int
	empno       []int32 // EMPNO of the i-th loaded row: a permutation, so key order is not load order
	dno, sal    []int32
	list        []op
	stmts       [len(plTexts)]*systemr.Stmt
}

const plJobs = 10

func newPointLookup(seed int64, emps, roundOps int) *pointLookup {
	rnd := rand.New(rand.NewSource(seed))
	w := &pointLookup{emps: emps, depts: max(emps/20, 1)}
	w.empno = make([]int32, emps)
	for i, p := range rnd.Perm(emps) {
		w.empno[i] = int32(p)
	}
	w.dno = make([]int32, emps)
	w.sal = make([]int32, emps)
	dnoOf := make([]int32, emps) // by EMPNO
	type member struct{ sal, empno int32 }
	byDept := make([][]member, w.depts)
	for i := range w.empno {
		w.dno[i] = int32(rnd.Intn(w.depts))
		w.sal[i] = int32(8000 + rnd.Intn(20000))
		dnoOf[w.empno[i]] = w.dno[i]
		byDept[w.dno[i]] = append(byDept[w.dno[i]], member{w.sal[i], w.empno[i]})
	}
	for _, m := range byDept {
		sort.Slice(m, func(a, b int) bool { return m[a].sal < m[b].sal })
	}

	// The sequence of statement kinds is the same under every seed; the seed
	// chooses the keys.
	kinds := rand.New(rand.NewSource(0))
	span := min(10, emps)
	w.list = make([]op, roundOps)
	for i := range w.list {
		o := &w.list[i]
		switch p := kinds.Intn(10); {
		case p < 6:
			k := int64(rnd.Intn(emps))
			*o = op{kind: plPoint, args: []any{k}, rows: 1, sums: []int64{k}}
		case p < 8:
			d := rnd.Intn(w.depts)
			floor := 8000 + rnd.Intn(20000)
			*o = op{kind: plDept, args: []any{int64(d), float64(floor) + 0.5}, sums: []int64{0}}
			for _, m := range byDept[d] {
				if int(m.sal) > floor {
					o.rows++
					o.sums[0] += int64(m.empno)
				}
			}
		case p < 9:
			lo := int64(rnd.Intn(emps - span + 1))
			hi := lo + int64(span) - 1
			*o = op{kind: plRange, args: []any{lo, hi}, rows: span, sums: []int64{(lo + hi) * int64(span) / 2}}
		default:
			k := int64(rnd.Intn(emps))
			*o = op{kind: plJoin, args: []any{k}, rows: 1, sums: []int64{k, int64(dnoOf[k])}}
		}
		o.text = plTexts[o.kind]
	}
	return w
}

func (w *pointLookup) tables() []tableDef {
	return []tableDef{
		{
			name: "EMP", cols: "NAME VARCHAR, DNO INTEGER, JOB INTEGER, SAL FLOAT, MANAGER INTEGER, EMPNO INTEGER",
			indexes: []string{
				"CREATE UNIQUE INDEX EMP_EMPNO ON EMP (EMPNO)",
				"CREATE INDEX EMP_DNO ON EMP (DNO)",
				"CREATE INDEX EMP_JOB ON EMP (JOB)",
			},
			n: w.emps,
			row: func(i int) value.Row {
				e := int64(w.empno[i])
				return value.Row{
					value.NewString(fmt.Sprintf("EMP%06d", e)), value.NewInt(int64(w.dno[i])),
					value.NewInt(e % plJobs), value.NewFloat(float64(w.sal[i])),
					value.NewInt(e / 7), value.NewInt(e),
				}
			},
		},
		{
			name: "DEPT", cols: "DNO INTEGER, DNAME VARCHAR, LOC VARCHAR",
			indexes: []string{"CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)"},
			n:       w.depts,
			row: func(i int) value.Row {
				return value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("DEPT%04d", i)),
					value.NewString(fmt.Sprintf("LOC%d", i%5))}
			},
		},
		{
			name: "JOB", cols: "JOB INTEGER, TITLE VARCHAR",
			indexes: []string{"CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)"},
			n:       plJobs,
			row: func(i int) value.Row {
				return value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("JOB%02d", i))}
			},
		},
	}
}

func (w *pointLookup) prepare(db *systemr.DB) error {
	for k, text := range plTexts {
		st, err := db.Prepare(text)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", text, err)
		}
		w.stmts[k] = st
	}
	return nil
}

func (w *pointLookup) ops(int, int) []op { return w.list }

func (w *pointLookup) exec(c *client, o *op) { c.run(w.stmts[o.kind], o) }

func (w *pointLookup) finish(*systemr.DB, []*client) error { return nil }

func (w *pointLookup) sizes() map[string]int {
	return map[string]int{"EMP": w.emps, "DEPT": w.depts, "JOB": plJobs, "round_ops": len(w.list)}
}
