package compile

import (
	"slices"
	"strings"
	"testing"

	"systemr/internal/catalog"
	"systemr/internal/core"
	"systemr/internal/lock"
	"systemr/internal/sql"
	"systemr/internal/storage"
	"systemr/internal/value"
)

func testPipeline(t *testing.T) (*Pipeline, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New(storage.NewDisk())
	if _, err := cat.CreateTable("T", []catalog.Column{
		{Name: "A", Type: value.KindInt},
		{Name: "B", Type: value.KindString},
	}, ""); err != nil {
		t.Fatal(err)
	}
	return NewPipeline(cat, core.Config{W: core.DefaultW, BufferPages: 64}), cat
}

func TestCompile(t *testing.T) {
	p, cat := testPipeline(t)
	norm, _ := sql.Normalize("select a, b from t where a = 1;")
	cp, err := p.Compile(nil, norm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Norm != "SELECT a , b FROM t WHERE a = 1" || cp.DML {
		t.Fatalf("norm = %q, DML = %v", cp.Norm, cp.DML)
	}
	if cp.Version != cat.Version() {
		t.Fatalf("version = %d, want %d", cp.Version, cat.Version())
	}
	if cp.Query == nil || len(cp.Query.OutNames) != 2 {
		t.Fatalf("query = %+v", cp.Query)
	}
	if p.Compilations() != 1 {
		t.Fatalf("compilations = %d, want 1", p.Compilations())
	}
	// An UPDATE compiles to the plan that locates its targets, and records
	// the columns its SET list writes; its lifted WHERE literal makes it a
	// family.
	up, lits, _ := sql.Lift("UPDATE T SET B = 'x' WHERE A = 7")
	cp, err = p.Compile(nil, up, nil, lits)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.DML || len(cp.Sets) != 1 || cp.Sets[0] != 1 || cp.Family == "" || cp.Locks[1].Mode != lock.Exclusive {
		t.Fatalf("UPDATE plan: DML %v, Sets %v, Family %q, Locks %v", cp.DML, cp.Sets, cp.Family, cp.Locks)
	}
	if p.Compilations() != 2 {
		t.Fatalf("compilations = %d, want 2", p.Compilations())
	}
}

func TestCompileRejectsUnplanned(t *testing.T) {
	p, _ := testPipeline(t)
	if _, err := p.Compile(nil, "INSERT INTO T VALUES ( 1 , 'x' )", nil, nil); err == nil ||
		!strings.Contains(err.Error(), "is not a SELECT, UPDATE or DELETE") {
		t.Fatalf("err = %v", err)
	}
}

func TestLockRequests(t *testing.T) {
	sel, err := sql.Parse("SELECT A FROM T")
	if err != nil {
		t.Fatal(err)
	}
	reqs := LockRequests(sel, false)
	want := []lock.Request{
		{Table: CatalogLock, Mode: lock.Shared},
		{Table: "T", Mode: lock.Shared},
	}
	if len(reqs) != len(want) {
		t.Fatalf("reqs = %v", reqs)
	}
	for i := range want {
		if reqs[i] != want[i] {
			t.Fatalf("reqs[%d] = %v, want %v", i, reqs[i], want[i])
		}
	}
	// Snapshot reads elide the read-table S lock but keep the catalog pin.
	snapReqs := LockRequests(sel, true)
	if len(snapReqs) != 1 || snapReqs[0] != (lock.Request{Table: CatalogLock, Mode: lock.Shared}) {
		t.Fatalf("snapshot-read reqs = %v, want catalog S lock only", snapReqs)
	}
	upd, err := sql.Parse("UPDATE T SET A = 1 WHERE A = 2")
	if err != nil {
		t.Fatal(err)
	}
	updReqs := LockRequests(upd, true)
	wantUpd := []lock.Request{
		{Table: CatalogLock, Mode: lock.Shared},
		{Table: "T", Mode: lock.Exclusive},
	}
	if len(updReqs) != len(wantUpd) {
		t.Fatalf("snapshot-mode UPDATE reqs = %v", updReqs)
	}
	for i := range wantUpd {
		if updReqs[i] != wantUpd[i] {
			t.Fatalf("updReqs[%d] = %v, want %v", i, updReqs[i], wantUpd[i])
		}
	}
	for _, ddl := range []string{
		"CREATE TABLE U (A INTEGER)",
		"CREATE INDEX TX ON T (A)",
		"DROP TABLE T",
		"DROP INDEX TX",
		"UPDATE STATISTICS",
	} {
		stmt, err := sql.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		reqs := LockRequests(stmt, true)
		if len(reqs) != 1 || reqs[0] != (lock.Request{Table: CatalogLock, Mode: lock.Exclusive}) {
			t.Fatalf("%s: reqs = %v, want exclusive catalog lock only", ddl, reqs)
		}
	}
}

// TestCanonicalLockSet: a lock set is put in canonical form where it is
// built, since the lock manager grants a set as given. Names are
// upper-cased, a table asked for twice is locked once with exclusive
// winning, and the catalog lock sorts before the tables, which sort by name.
func TestCanonicalLockSet(t *testing.T) {
	for _, c := range []struct {
		in, want []lock.Request
	}{
		{
			in: []lock.Request{
				{Table: "a", Mode: lock.Shared},
				{Table: "A", Mode: lock.Exclusive},
				{Table: "B", Mode: lock.Shared},
				{Table: "b", Mode: lock.Shared},
			},
			want: []lock.Request{{Table: "A", Mode: lock.Exclusive}, {Table: "B", Mode: lock.Shared}},
		},
		{
			in: []lock.Request{
				{Table: "Z", Mode: lock.Exclusive},
				{Table: CatalogLock, Mode: lock.Shared},
				{Table: "T", Mode: lock.Shared},
				{Table: "t", Mode: lock.Exclusive},
			},
			want: []lock.Request{
				{Table: CatalogLock, Mode: lock.Shared},
				{Table: "T", Mode: lock.Exclusive},
				{Table: "Z", Mode: lock.Exclusive},
			},
		},
	} {
		if got := canonical(slices.Clone(c.in)); !slices.Equal(got, c.want) {
			t.Errorf("canonical(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// A table both read and written under two-phase locking is locked once,
	// exclusively, after the catalog lock.
	stmt, err := sql.Parse("UPDATE T SET A = 1 WHERE A IN (SELECT A FROM T) AND A IN (SELECT A FROM U)")
	if err != nil {
		t.Fatal(err)
	}
	want := []lock.Request{
		{Table: CatalogLock, Mode: lock.Shared},
		{Table: "T", Mode: lock.Exclusive},
		{Table: "U", Mode: lock.Shared},
	}
	if got := LockRequests(stmt, false); !slices.Equal(got, want) {
		t.Fatalf("LockRequests = %v, want %v", got, want)
	}
}

func TestKeyAndArgSig(t *testing.T) {
	if Key("SELECT 1", "") != "SELECT 1" {
		t.Fatal("no-arg key must be the bare norm")
	}
	if Key("SELECT 1", "I") != "SELECT 1\x00I" {
		t.Fatal("arg key must append the signature")
	}
	sig := ArgSig([]value.Value{
		value.NewInt(1), value.NewFloat(2.5), value.NewString("x"), value.Null(),
	})
	if sig != "IFSN" {
		t.Fatalf("sig = %q, want IFSN", sig)
	}
	if ArgSig(nil) != "" {
		t.Fatal("empty args must give empty signature")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	p, _ := testPipeline(t)
	if _, err := p.Compile(nil, "SELECT NOPE FROM T", nil, nil); err == nil {
		t.Fatal("unknown column must fail semantic analysis")
	}
	if _, err := p.Compile(nil, "SELECT FROM", nil, nil); err == nil {
		t.Fatal("syntax error must surface")
	}
}
