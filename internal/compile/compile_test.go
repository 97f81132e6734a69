package compile

import (
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
	return NewPipeline(cat, core.Config{W: core.DefaultW, BufferPages: 64}, false), cat
}

func TestCompileSelectText(t *testing.T) {
	p, cat := testPipeline(t)
	cp, err := p.CompileSelectText(nil, "select a, b from t where a = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Norm != "SELECT a , b FROM t WHERE a = 1" {
		t.Fatalf("norm = %q", cp.Norm)
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
	// The stored normalized text must itself compile (it is the recompile
	// source for stale cache entries) and to the same normalized form.
	cp2, err := p.CompileSelectText(nil, cp.Norm)
	if err != nil {
		t.Fatalf("recompiling from normalized text: %v", err)
	}
	if cp2.Norm != cp.Norm {
		t.Fatalf("normalization not a fixed point: %q vs %q", cp2.Norm, cp.Norm)
	}
}

func TestCompileSelectTextRejectsNonSelect(t *testing.T) {
	p, _ := testPipeline(t)
	if _, err := p.CompileSelectText(nil, "DELETE FROM T"); err == nil ||
		!strings.Contains(err.Error(), "expected a SELECT") {
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
	if _, err := p.CompileSelectText(nil, "SELECT NOPE FROM T"); err == nil {
		t.Fatal("unknown column must fail semantic analysis")
	}
	if _, err := p.CompileSelectText(nil, "SELECT FROM"); err == nil {
		t.Fatal("syntax error must surface")
	}
}
