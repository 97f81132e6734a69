package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestDirectiveFixture runs nakedpanic and noprint together over the
// directive fixture: every genuine finding there is excused (line form,
// block form, block-body form, comma list), so any surviving analyzer
// diagnostic is a suppression bug — and every misuse (unused or malformed
// directive) must be reported at the directive's own line.
func TestDirectiveFixture(t *testing.T) {
	pkgs, err := LoadFixture(filepath.Join("testdata", "directive"))
	if err != nil {
		t.Fatalf("loading directive fixture: %v", err)
	}
	diags, err := Run(pkgs, []*Analyzer{NakedPanic, NoPrint})
	if err != nil {
		t.Fatalf("running on directive fixture: %v", err)
	}
	for _, d := range diags {
		if d.Analyzer != "sysrcheck" {
			t.Errorf("suppression failed, diagnostic survived: %s", d)
		}
	}

	bad := filepath.Join("testdata", "directive", "lib", "bad.go")
	unusedLine := lineOfTrimmed(t, bad, "//sysrcheck:ignore nakedpanic fixture: nothing to excuse")
	expectAt(t, diags, bad, unusedLine, "unused ignore directive for nakedpanic")

	bareLine := lineOfTrimmed(t, bad, "//sysrcheck:ignore")
	expectAt(t, diags, bad, bareLine, "must name an analyzer and give a reason")

	reasonless := lineOfTrimmed(t, bad, "//sysrcheck:ignore nakedpanic")
	expectAt(t, diags, bad, reasonless, "requires a reason")

	emptyName := lineOfTrimmed(t, bad, "//sysrcheck:ignore nakedpanic,, fixture: empty name inside the list")
	expectAt(t, diags, bad, emptyName, "has an empty analyzer name")
	// The list's one valid name still registers a directive; with nothing
	// to excuse it is also unused.
	expectAt(t, diags, bad, emptyName, "unused ignore directive for nakedpanic")

	// A name outside the suite is malformed, whether a typo or retired.
	typo := lineOfTrimmed(t, bad, "//sysrcheck:ignore govtik fixture: misspelled analyzer name")
	expectAt(t, diags, bad, typo, "names unknown analyzer govtik")
	retired := lineOfTrimmed(t, bad, "//sysrcheck:ignore govprop fixture: retired analyzer name")
	expectAt(t, diags, bad, retired, "names unknown analyzer govprop")

	// The govtick directive names a suite analyzer outside this run's set:
	// neither used nor condemned.
	notRunning := lineOfTrimmed(t, bad, "//sysrcheck:ignore govtick fixture: govtick is not in this run")
	for _, d := range diags {
		if d.Pos.Filename == bad && d.Pos.Line == notRunning {
			t.Errorf("directive for a non-running analyzer was reported: %s", d)
		}
	}
}

// TestCommentLines covers the block-comment splitting rules: marker
// stripping, doc-style "*" decoration, and per-line positions.
func TestCommentLines(t *testing.T) {
	got := commentLines("/* first\n * sysrcheck:ignore x y\n last */")
	want := []string{"first", " sysrcheck:ignore x y", "last"}
	if len(got) != len(want) {
		t.Fatalf("commentLines returned %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := commentLines("// sysrcheck:ignore x y"); len(got) != 1 || got[0] != " sysrcheck:ignore x y" {
		t.Errorf("line comment split = %q", got)
	}
}

// TestDirectiveSetAccounting covers the set's bookkeeping directly:
// comma lists fan out into one directive per analyzer, suppression
// reaches the directive's line and the line below, and the unused report
// respects the running set.
func TestDirectiveSetAccounting(t *testing.T) {
	ds := &directiveSet{byLine: make(map[string]map[int][]*directive)}
	pos := token.Position{Filename: "f.go", Line: 10}
	ds.add(pos, " govtick,lockrank bounded by the schema, not data volume")
	if len(ds.all) != 2 {
		t.Fatalf("comma list registered %d directives, want 2", len(ds.all))
	}
	if len(ds.malformed) != 0 {
		t.Fatalf("well-formed list produced malformed diagnostics: %v", ds.malformed)
	}

	at := func(line int, analyzer string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "f.go", Line: line},
			Analyzer: analyzer,
		}
	}
	if !ds.suppresses(at(10, "lockrank")) {
		t.Error("directive did not suppress on its own line")
	}
	if !ds.suppresses(at(11, "lockrank")) {
		t.Error("directive did not suppress on the line below")
	}
	if ds.suppresses(at(12, "lockrank")) {
		t.Error("directive suppressed two lines below")
	}
	if ds.suppresses(at(10, "selclamp")) {
		t.Error("directive suppressed an analyzer it does not name")
	}

	// lockrank was used; govtick was not — but only a running govtick
	// may be condemned.
	if got := ds.unused(map[string]bool{"lockrank": true}); len(got) != 0 {
		t.Errorf("unused condemned a non-running analyzer: %v", got)
	}
	got := ds.unused(map[string]bool{"lockrank": true, "govtick": true})
	if len(got) != 1 {
		t.Fatalf("unused = %v, want exactly the govtick directive", got)
	}
	if got[0].Pos.Line != 10 || got[0].Analyzer != "sysrcheck" {
		t.Errorf("unused diagnostic = %+v", got[0])
	}
}
