package analysis

// Fixture harness in the style of x/tools' analysistest: fixture sources
// under testdata/<analyzer>/ carry `// want "regex"` comments on the lines
// the analyzer must flag. The test fails on any unmatched want AND on any
// diagnostic without a want — so weakening an analyzer (a lost finding)
// and loosening it (a new false positive) both break the suite.

import (
	"path/filepath"
	"regexp"
	"testing"
)

var wantRE = regexp.MustCompile(`// want "(.*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/<dir>, runs one analyzer, and checks the
// diagnostics against the fixture's want annotations.
func runFixture(t *testing.T, a *Analyzer, dir string) []Diagnostic {
	t.Helper()
	pkgs, err := LoadFixture(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, pkgs)
	var unexpected []Diagnostic
outer:
	for _, d := range diags {
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				continue outer
			}
		}
		unexpected = append(unexpected, d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for _, d := range unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	return diags
}

func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var ws []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					ws = append(ws, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return ws
}
