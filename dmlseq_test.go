package systemr_test

// A seeded sequence of literal UPDATEs, DELETEs and INSERTs, interleaved
// with SELECTs, UPDATE STATISTICS and an index dropped and re-created, runs
// on two databases. One runs every UPDATE and DELETE ad hoc, so after the
// first statement of a family (its text with the WHERE literals lifted) and
// selectivity class it runs a cached plan; the other runs them through
// prepared statements. After every statement both must hold the rows a Go
// model holds and dump the same script.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"systemr"
	"systemr/internal/compile"
	"systemr/internal/core"
	"systemr/internal/sem"
	"systemr/internal/sql"
)

type seqRow struct {
	g, v int64
	s    string
}

type seqModel map[int64]*seqRow

// each applies f to every row match selects and returns how many it did.
// f may delete the row.
func (m seqModel) each(match func(id int64, x *seqRow) bool, f func(id int64, x *seqRow)) int {
	n := 0
	for id, x := range m {
		if match(id, x) {
			f(id, x)
			n++
		}
	}
	return n
}

// seqFamily is one UPDATE or DELETE, written with ? where its WHERE
// literals go: prepared as written on one database, and run with the
// literals spelled in on the other. args draws a statement's values (next
// is the next unused ID), and apply applies it to the model and returns the
// rows it affects.
type seqFamily struct {
	text  string
	args  func(r *rand.Rand, next int64) []int64
	apply func(m seqModel, a []int64) int
}

var seqFamilies = []seqFamily{
	{"UPDATE ACCT SET V = V + 1 WHERE ID = ?",
		func(r *rand.Rand, next int64) []int64 { return []int64{r.Int63n(next)} },
		func(m seqModel, a []int64) int {
			return m.each(func(id int64, _ *seqRow) bool { return id == a[0] }, func(_ int64, x *seqRow) { x.v++ })
		}},
	{"UPDATE ACCT SET S = 'r' WHERE ID BETWEEN ? AND ?",
		func(r *rand.Rand, next int64) []int64 { lo := r.Int63n(next); return []int64{lo, lo + r.Int63n(8)} },
		func(m seqModel, a []int64) int {
			return m.each(func(id int64, _ *seqRow) bool { return id >= a[0] && id <= a[1] }, func(_ int64, x *seqRow) { x.s = "r" })
		}},
	{"UPDATE ACCT SET V = V - 1 WHERE G IN (?, ?, ?)",
		func(r *rand.Rand, _ int64) []int64 { return []int64{r.Int63n(20), r.Int63n(20), r.Int63n(20)} },
		func(m seqModel, a []int64) int {
			return m.each(func(_ int64, x *seqRow) bool { return x.g == a[0] || x.g == a[1] || x.g == a[2] },
				func(_ int64, x *seqRow) { x.v-- })
		}},
	{"DELETE FROM ACCT WHERE ID = ?",
		func(r *rand.Rand, next int64) []int64 { return []int64{r.Int63n(next)} },
		func(m seqModel, a []int64) int {
			return m.each(func(id int64, _ *seqRow) bool { return id == a[0] }, func(id int64, _ *seqRow) { delete(m, id) })
		}},
	{"DELETE FROM ACCT WHERE G = ? AND V > ?",
		func(r *rand.Rand, next int64) []int64 { return []int64{r.Int63n(20), next - r.Int63n(40)} },
		func(m seqModel, a []int64) int {
			return m.each(func(_ int64, x *seqRow) bool { return x.g == a[0] && x.v > a[1] }, func(id int64, _ *seqRow) { delete(m, id) })
		}},
}

// spell replaces the text's ? with the literals a, in order.
func spell(text string, a []int64) string {
	for _, v := range a {
		text = strings.Replace(text, "?", fmt.Sprint(v), 1)
	}
	return text
}

// planKeyOf is the plan-cache key a lifted UPDATE or DELETE text's plan
// has under db's current catalog: its family and its literals' classes.
func planKeyOf(t *testing.T, db *systemr.DB, text string) string {
	t.Helper()
	norm, lits, _ := sql.Lift(text)
	stmt, err := sql.Parse(norm)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, err := sem.AnalyzeLifted(stmt, db.Catalog(), lits)
	if err != nil {
		t.Fatal(err)
	}
	classes := core.NewClassifier(db.OptimizerConfig(), blk)
	return compile.Key(compile.Key(norm, compile.ArgSig(lits)), classes.Signature(lits))
}

// checkSeq checks both databases against the model: every row, and the
// dumped script.
func checkSeq(t *testing.T, step int, what string, m seqModel, dbs ...*systemr.DB) {
	t.Helper()
	var want []string
	for id, x := range m {
		want = append(want, fmt.Sprintf("%d %d %d %s", id, x.g, x.v, x.s))
	}
	sort.Strings(want)
	var dumps []string
	for i, db := range dbs {
		res, err := db.Query("SELECT ID, G, V, S FROM ACCT")
		if err != nil {
			t.Fatalf("step %d (%s), database %d: %v", step, what, i, err)
		}
		got := make([]string, len(res.Rows))
		for j, r := range res.Rows {
			got[j] = fmt.Sprintf("%d %d %d %s", r...)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("step %d (%s), database %d: %d rows differ from the model's %d", step, what, i, len(got), len(want))
		}
		var b strings.Builder
		if err := db.DumpSQL(&b); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, b.String())
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("step %d (%s): the two databases dump different scripts", step, what)
	}
}

// TestDMLSequence runs the sequence. The ad hoc database compiles each
// UPDATE or DELETE once per family, class and catalog version, the
// prepared one once per statement and catalog version, and DROP INDEX
// under a cached and a prepared UPDATE recompiles both.
func TestDMLSequence(t *testing.T) {
	adhoc, prep := openDB(systemr.Config{}), openDB(systemr.Config{})
	dbs := []*systemr.DB{adhoc, prep}
	m := seqModel{}
	next := int64(0)
	insert := func() string {
		id := next
		next++
		m[id] = &seqRow{g: id % 20, v: id, s: "i"}
		return fmt.Sprintf("INSERT INTO ACCT VALUES (%d, %d, %d, 'i')", id, id%20, id)
	}
	all := func(text string) {
		t.Helper()
		for _, db := range dbs {
			if _, err := db.Exec(text); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
		}
	}
	all("CREATE TABLE ACCT (ID INTEGER, G INTEGER, V INTEGER, S VARCHAR)")
	all("CREATE UNIQUE CLUSTERED INDEX ACCT_ID ON ACCT (ID)")
	all("CREATE INDEX ACCT_G ON ACCT (G)")
	for i := 0; i < 200; i++ {
		all(insert())
	}
	all("UPDATE STATISTICS")

	stmts := make([]*systemr.Stmt, len(seqFamilies))
	before := prep.PlanCacheStats().Compilations
	for i, f := range seqFamilies {
		var err error
		if stmts[i], err = prep.Prepare(f.text); err != nil {
			t.Fatal(err)
		}
	}
	// The compilations each database's UPDATEs and DELETEs may make: the
	// ad hoc one's (family, class) keys, and the prepared one's
	// statements, each per catalog version.
	adhocKeys, prepKeys := map[string]bool{}, map[string]bool{}
	adhocCompiles, prepCompiles := int64(0), prep.PlanCacheStats().Compilations-before
	for i := range seqFamilies {
		prepKeys[fmt.Sprint(prep.PlanCacheStats().CatalogVersion, i)] = true
	}
	dmlRuns := 0
	runDML := func(step, fi int, a []int64) {
		t.Helper()
		f := seqFamilies[fi]
		text := spell(f.text, a)
		want := f.apply(m, a)
		adhocKeys[fmt.Sprint(adhoc.PlanCacheStats().CatalogVersion, planKeyOf(t, adhoc, text))] = true
		prepKeys[fmt.Sprint(prep.PlanCacheStats().CatalogVersion, fi)] = true
		c0 := adhoc.PlanCacheStats().Compilations
		res, err := adhoc.Exec(text)
		if err != nil || res.Affected != want {
			t.Fatalf("step %d: %s: %v, affected %v; want %d", step, text, err, res, want)
		}
		adhocCompiles += adhoc.PlanCacheStats().Compilations - c0
		c0 = prep.PlanCacheStats().Compilations
		args := make([]any, len(a))
		for i, v := range a {
			args[i] = v
		}
		res, err = stmts[fi].Run(args...)
		if err != nil || res.Affected != want {
			t.Fatalf("step %d: prepared %s %v: %v, affected %v; want %d", step, f.text, a, err, res, want)
		}
		prepCompiles += prep.PlanCacheStats().Compilations - c0
		dmlRuns++
		checkSeq(t, step, text, m, dbs...)
	}

	r := rand.New(rand.NewSource(1))
	for step := 0; step < 500; step++ {
		switch k := r.Intn(10); {
		case step == 299:
			// DROP INDEX under a cached and a prepared UPDATE recompiles
			// both.
			runDML(step, 0, seqFamilies[0].args(r, next))
			a0, p0, v0 := adhocCompiles, prepCompiles, stmts[0].Version()
			all("DROP INDEX ACCT_ID")
			runDML(step, 0, seqFamilies[0].args(r, next))
			if adhocCompiles != a0+1 || prepCompiles != p0+1 || stmts[0].Version() == v0 {
				t.Fatalf("step %d: after DROP INDEX the UPDATE compiled %d times ad hoc and %d times prepared (version %d -> %d), want once each",
					step, adhocCompiles-a0, prepCompiles-p0, v0, stmts[0].Version())
			}
		case step == 349:
			all("CREATE UNIQUE CLUSTERED INDEX ACCT_ID ON ACCT (ID)")
			checkSeq(t, step, "CREATE INDEX", m, dbs...)
		case step == 149 || step == 449:
			all("UPDATE STATISTICS ACCT")
			checkSeq(t, step, "UPDATE STATISTICS", m, dbs...)
		case k < 6:
			fi := r.Intn(len(seqFamilies))
			runDML(step, fi, seqFamilies[fi].args(r, next))
		case k < 8:
			text := insert()
			all(text)
			checkSeq(t, step, text, m, dbs...)
		default:
			g := r.Int63n(20)
			want := m.each(func(_ int64, x *seqRow) bool { return x.g == g }, func(int64, *seqRow) {})
			for _, db := range dbs {
				res, err := db.Query(fmt.Sprintf("SELECT ID, V FROM ACCT WHERE G = %d", g))
				if err != nil || len(res.Rows) != want {
					t.Fatalf("step %d: G = %d: %v, %v rows; want %d", step, g, err, res, want)
				}
			}
		}
	}
	if adhocCompiles != int64(len(adhocKeys)) || prepCompiles > int64(len(prepKeys)) {
		t.Fatalf("%d UPDATEs and DELETEs compiled %d times ad hoc for %d (family, class, version) keys, and %d times prepared for %d (statement, version) pairs",
			dmlRuns, adhocCompiles, len(adhocKeys), prepCompiles, len(prepKeys))
	}
	if adhocCompiles*3 > int64(dmlRuns) {
		t.Fatalf("%d UPDATEs and DELETEs compiled %d times ad hoc: the plan cache served too few", dmlRuns, adhocCompiles)
	}
	t.Logf("%d UPDATEs and DELETEs: %d ad hoc compilations, %d prepared", dmlRuns, adhocCompiles, prepCompiles)
	for _, db := range dbs {
		assertClean(t, db)
	}
}
