package workload

import (
	"math/rand"
	"testing"

	"systemr"
	"systemr/internal/sem"
	"systemr/internal/sql"
)

func TestNewEmpDBShape(t *testing.T) {
	db := NewEmpDB(EmpConfig{Emps: 200, Depts: 10, Jobs: 5, Seed: 1})
	res, err := db.Query("SELECT COUNT(*) FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 200 {
		t.Fatalf("EMP count: %v", res.Rows)
	}
	res, err = db.Query("SELECT COUNT(*) FROM DEPT")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 10 {
		t.Fatalf("DEPT count: %v", res.Rows)
	}
	emp, ok := db.Catalog().Table("EMP")
	if !ok || len(emp.Indexes) != 4 {
		t.Fatalf("EMP indexes: %d", len(emp.Indexes))
	}
	if !emp.Stats.HasStats {
		t.Fatal("statistics must be gathered")
	}
	// The Figure 1 query must run on any generated instance.
	if _, err := db.Query(Figure1Query); err != nil {
		t.Fatal(err)
	}
}

func TestNewEmpDBClustered(t *testing.T) {
	db := NewEmpDB(EmpConfig{Emps: 300, Depts: 10, Seed: 2, ClusterEmpByDno: true})
	emp, _ := db.Catalog().Table("EMP")
	ci := emp.ClusteredIndex()
	if ci == nil || ci.Name != "EMP_DNO" {
		t.Fatal("clustered index missing")
	}
	// Clustered loading: TCARD pages ≈ pages touched for one DNO's rows is
	// small; verify physical order by checking the first column sequence.
	res, err := db.Query("SELECT DNO FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for _, r := range res.Rows {
		d := r[0].(int64)
		if d < prev {
			t.Fatal("EMP not loaded in DNO order")
		}
		prev = d
	}
}

func TestNewEmpDBNoStatistics(t *testing.T) {
	db := NewEmpDB(EmpConfig{Emps: 50, Seed: 3, NoStatistics: true})
	emp, _ := db.Catalog().Table("EMP")
	if emp.Stats.HasStats {
		t.Fatal("statistics should be absent")
	}
	// Queries still run on the paper's defaults.
	if _, err := db.Query("SELECT NAME FROM EMP WHERE DNO = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConfigUsedAsGiven: the Engine configuration reaches the
// database unchanged, its buffer pool size included.
func TestEngineConfigUsedAsGiven(t *testing.T) {
	db := NewEmpDB(EmpConfig{Emps: 50, Seed: 5, Engine: systemr.Config{BufferPages: 4096}})
	if got := db.Pool().Capacity(); got != 4096 {
		t.Fatalf("buffer pool capacity = %d pages, want the configured 4096", got)
	}
}

func TestSharedSegmentConfig(t *testing.T) {
	// Enough DEPT rows to span several pages; JOB's few tuples then occupy
	// only a fraction of the shared segment's pages.
	db := NewEmpDB(EmpConfig{Emps: 100, Depts: 600, Jobs: 5, Seed: 4, SharedSegment: true})
	dept, _ := db.Catalog().Table("DEPT")
	job, _ := db.Catalog().Table("JOB")
	if dept.Segment != job.Segment {
		t.Fatal("DEPT and JOB should share a segment")
	}
	if job.Stats.P >= 1.0 {
		t.Fatalf("shared segment should yield P(JOB) < 1, got %f", job.Stats.P)
	}
	// The optimizer's segment-scan cost for JOB is TCARD/P = all pages of
	// the shared segment.
	if got := job.Stats.EffTCard() / job.Stats.EffP(); got < float64(dept.Stats.TCard) {
		t.Fatalf("segment scan cost %f should cover DEPT's pages too (%d)", got, dept.Stats.TCard)
	}
}

func TestRandomDBAndQueriesAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db := RandomDB(rnd, RandomDBConfig{Tables: 3, MaxRows: 20})
		for i := 0; i < 20; i++ {
			q := RandomQuery(rnd, db, 1+rnd.Intn(3), i%2 == 0)
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("seed %d: generated unparseable query %q: %v", seed, q, err)
			}
			if _, err := sem.Analyze(st.(*sql.SelectStmt), db.Catalog()); err != nil {
				t.Fatalf("seed %d: generated unanalyzable query %q: %v", seed, q, err)
			}
		}
	}
}
