package analysis

// The //sysrcheck:ignore escape hatch. A directive names the analyzer (or a
// comma-separated list of analyzers) it silences and must carry a reason —
// the convention is
//
//	//sysrcheck:ignore govtick index maintenance loop is bounded by the
//	index count, not by data volume
//
// placed on the flagged line or the line directly above it. Both comment
// forms work: `//`-prefixed line comments and `/* */` block comments (the
// directive may sit on any line inside the block; its effective position is
// that line). A directive without a reason or naming an analyzer outside
// the suite is itself reported, and so is a well-formed directive that
// suppresses nothing: the escape hatch exists to record *why* an invariant
// does not apply, not to turn checks off silently — and not to outlive the
// finding it excused.

import (
	"go/token"
	"slices"
	"strings"
)

const directiveMarker = "sysrcheck:ignore"

// directive is one parsed, well-formed ignore entry for one analyzer name.
type directive struct {
	pos      token.Position
	analyzer string
	used     bool
}

// directiveSet indexes a whole run's ignore directives by file and line.
type directiveSet struct {
	// byLine maps file name and line to the directives in force there.
	byLine    map[string]map[int][]*directive
	all       []*directive
	malformed []Diagnostic
}

// collectDirectives scans every comment of every package in the run. The
// set is shared across analyzers: suppression is applied once, after all
// analyzers finish, so the "used" accounting sees the full diagnostic set.
func collectDirectives(pkgs []*Package) *directiveSet {
	ds := &directiveSet{byLine: make(map[string]map[int][]*directive)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					base := pkg.Fset.Position(c.Pos())
					for i, line := range commentLines(c.Text) {
						rest, ok := directiveText(line)
						if !ok {
							continue
						}
						pos := base
						pos.Line += i
						if i > 0 {
							pos.Column = 1
						}
						ds.add(pos, rest)
					}
				}
			}
		}
	}
	return ds
}

// commentLines splits a raw comment into physical lines with the comment
// markers stripped: "//" prefixes for line comments, "/*", "*/" and leading
// "*" decoration for block comments.
func commentLines(text string) []string {
	if strings.HasPrefix(text, "//") {
		return []string{strings.TrimPrefix(text, "//")}
	}
	// Block comment.
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		// Strip a leading "*" decoration ("doc-style" block comments), but
		// keep the line's content.
		if strings.HasPrefix(trimmed, "*") && !strings.HasPrefix(trimmed, "*/") {
			trimmed = strings.TrimPrefix(trimmed, "*")
		}
		lines[i] = trimmed
	}
	return lines
}

// directiveText reports whether a comment line is an ignore directive and
// returns the text after the marker.
func directiveText(line string) (string, bool) {
	trimmed := strings.TrimSpace(line)
	if !strings.HasPrefix(trimmed, directiveMarker) {
		return "", false
	}
	return strings.TrimPrefix(trimmed, directiveMarker), true
}

func (ds *directiveSet) add(pos token.Position, rest string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		ds.malformed = append(ds.malformed, Diagnostic{
			Pos:      pos,
			Analyzer: "sysrcheck",
			Message:  "ignore directive must name an analyzer and give a reason",
		})
		return
	}
	names := strings.Split(strings.TrimSuffix(fields[0], ":"), ",")
	reason := strings.TrimSpace(strings.Join(fields[1:], " "))
	if reason == "" {
		ds.malformed = append(ds.malformed, Diagnostic{
			Pos:      pos,
			Analyzer: "sysrcheck",
			Message:  "ignore directive for " + strings.Join(names, ",") + " requires a reason",
		})
		return
	}
	lines := ds.byLine[pos.Filename]
	if lines == nil {
		lines = make(map[int][]*directive)
		ds.byLine[pos.Filename] = lines
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			ds.malformed = append(ds.malformed, Diagnostic{
				Pos:      pos,
				Analyzer: "sysrcheck",
				Message:  "ignore directive has an empty analyzer name",
			})
			continue
		}
		if !slices.ContainsFunc(Suite, func(a *Analyzer) bool { return a.Name == name }) {
			ds.malformed = append(ds.malformed, Diagnostic{
				Pos:      pos,
				Analyzer: "sysrcheck",
				Message:  "ignore directive names unknown analyzer " + name,
			})
			continue
		}
		d := &directive{pos: pos, analyzer: name}
		ds.all = append(ds.all, d)
		lines[pos.Line] = append(lines[pos.Line], d)
	}
}

// suppresses reports whether a well-formed directive for the diagnostic's
// analyzer sits on its line or the line above, marking the directive used.
func (ds *directiveSet) suppresses(d Diagnostic) bool {
	lines := ds.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.analyzer == d.Analyzer {
				dir.used = true
				hit = true
			}
		}
	}
	return hit
}

// unused returns a diagnostic for every directive naming an analyzer in the
// running set that suppressed nothing. Directives for suite analyzers
// outside the set are skipped — a partial run (-checks, single-analyzer
// fixtures) must not condemn directives it never exercised; a name outside
// the suite was already reported by add.
func (ds *directiveSet) unused(running map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range ds.all {
		if dir.used || !running[dir.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "sysrcheck",
			Message:  "unused ignore directive for " + dir.analyzer + ": it suppresses nothing; remove it",
		})
	}
	return out
}
