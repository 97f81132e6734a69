// Package analysis is sysrcheck: a project-specific static-analysis suite
// that enforces this codebase's load-bearing invariants at build time —
// the ones the governor (PR 1), the operator contract (PR 2), the
// selectivity clamp (PR 3), the I/O attribution split (PR 5), the
// transaction layer (PR 6/8), and the lock hierarchy introduced but nothing
// enforced:
//
//   - rsiclose: RSI scans, lock grants, and opened operator trees are
//     closed/released on every path out of the acquiring function.
//   - govtick: tuple/page-producing loops in the executor, the RSS, and the
//     sorter contain a governor budget checkpoint; every NextBatch body in
//     the batched operator protocol reaches one at least once per batch and
//     never reads the pool's DB-global IOStats for its batch delta.
//   - selclamp: selectivity factors pass through internal/core's single
//     clamp entry point; raw float arithmetic never flows into F unclamped.
//   - nakedpanic: library code panics only through the sanctioned
//     internal/check helper (contained at the execStmt boundary).
//   - errlost: errors from Close/Unlock/Release are not silently dropped.
//   - noprint: library code never writes to stdout/stderr.
//   - stmtio: the executor layers never read the buffer pool's DB-global
//     IOStats for per-operator deltas — attribution goes through the
//     statement's own StmtIO accumulator (PR 5).
//   - txnundo: every engine mutation flows through the undo-logged write
//     path (txn.Txn over the rss Insert/Delete/Restore primitives) — a
//     direct segment, page, or index mutation would survive rollback (PR 6).
//   - mvccvis: row versions are read only through the RSS visibility
//     boundary (ReadVersioned + Snapshot.Visible) — raw Page.Record /
//     DecodeRow / ParseVersionHeader in exec or txn would resurrect
//     delete-marked or uncommitted versions (PR 8).
//   - lockrank: mutexes and table locks are acquired in the declared rank
//     order, program-wide — no lock.Manager acquisition while holding a
//     buffer-pool, registry, or page mutex (the deadlock shapes the runtime
//     wait-for-graph detector can only observe, caught at build time).
//   - atomicfield: a struct field accessed through sync/atomic anywhere is
//     accessed only through sync/atomic everywhere — static race detection
//     for the IOStats/metrics/governor counter style.
//   - snappin: every call chain that reaches the MVCC read boundary
//     (Page.ReadVersioned / Snapshot.Visible) originates from a function
//     that captured and pinned a snapshot (txn.Registry.Begin), and the pin
//     is released (Registry.Finish) on every return path.
//   - govprop: interprocedural govtick — a row-producing loop anywhere in
//     the engine either ticks the governor locally or is only reachable
//     from ticking callers.
//
// The suite mirrors the shape of golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic / Fact, a multichecker driver in cmd/sysrcheck,
// want-annotated fixtures) but is built on the standard library alone: the
// container this repository builds in has no module proxy access, so the
// x/tools dependency is gated off and the subset sysrcheck needs is
// implemented here. Should x/tools become available, each Analyzer converts
// mechanically (the Run signature is the same modulo package types).
//
// Since PR 9 the framework is interprocedural: every Run loads and
// type-checks each package exactly once, shared by all analyzers; a
// whole-program call graph (static calls plus class-hierarchy-resolved
// interface dispatch) is built once over the load; analyzers export typed
// Facts on functions, fields, and types while walking packages in
// dependency order and consume them across package boundaries; and an
// optional RunProgram pass runs after all packages with the full graph in
// view. Analyzers execute in parallel — each one owns its fact namespace,
// and the loaded packages and call graph are read-only by then.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named invariant check, same shape as
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sysrcheck:ignore directives.
	Name string
	// Doc is the one-line invariant statement.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	// Packages arrive in dependency order, so facts exported while
	// analyzing an imported package are visible here. Optional when
	// RunProgram is set.
	Run func(*Pass) error
	// RunProgram, when set, runs once after every package's Run, with the
	// whole program — all packages, the call graph, and the facts this
	// analyzer exported — in view. The interprocedural analyzers live here.
	RunProgram func(*ProgramPass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole loaded program (all packages and the call graph).
	// The packages after this one in dependency order are present but
	// should be treated as opaque until RunProgram.
	Prog *Program

	facts  *factSet
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact attaches a fact to obj in this analyzer's namespace;
// later packages and the program pass can read it back.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) { p.facts.exportObject(obj, f) }

// ImportObjectFact copies the fact of f's type attached to obj into f,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool { return p.facts.importObject(obj, f) }

// ExportPackageFact attaches a fact to the package being analyzed.
func (p *Pass) ExportPackageFact(f Fact) { p.facts.exportPackage(p.Pkg.Types, f) }

// ImportPackageFact copies the fact of f's type attached to pkg into f.
func (p *Pass) ImportPackageFact(pkg *types.Package, f Fact) bool {
	return p.facts.importPackage(pkg, f)
}

// ProgramPass is one analyzer's whole-program view, handed to RunProgram
// after every package has been visited.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	facts  *factSet
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos (resolved through the program's
// shared file set).
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportObjectFact copies the fact of f's type attached to obj into f.
func (p *ProgramPass) ImportObjectFact(obj types.Object, f Fact) bool {
	return p.facts.importObject(obj, f)
}

// ObjectsWithFact returns every object the analyzer attached a fact of f's
// concrete type to.
func (p *ProgramPass) ObjectsWithFact(f Fact) []types.Object { return p.facts.objectsWith(f) }

// Program is one loaded, type-checked program: every package of a Run in
// dependency order, the shared file set, and the call graph built once over
// all of them.
type Program struct {
	Pkgs      []*Package
	Fset      *token.FileSet
	CallGraph *CallGraph

	pkgOf map[*types.Package]*Package
}

// NewProgram assembles the program view over pkgs (dependency order, as
// Load returns them) and builds the call graph.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, pkgOf: make(map[*types.Package]*Package, len(pkgs))}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		prog.pkgOf[p.Types] = p
	}
	prog.CallGraph = buildCallGraph(pkgs)
	return prog
}

// PackageOf returns the loaded package wrapping tp, or nil.
func (prog *Program) PackageOf(tp *types.Package) *Package { return prog.pkgOf[tp] }

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Suite is the full sysrcheck analyzer set, the order diagnostics sort in.
var Suite = []*Analyzer{
	RSIClose,
	GovTick,
	SelClamp,
	NakedPanic,
	ErrLost,
	NoPrint,
	StmtIO,
	TxnUndo,
	MVCCVis,
	LockRank,
	AtomicField,
	SnapPin,
	GovProp,
}

// AnalyzerTiming records how long one analyzer took over the whole program.
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
}

// Result is one suite run's outcome: the surviving diagnostics in
// file/line order and per-analyzer wall-clock timings.
type Result struct {
	Diags   []Diagnostic
	Timings []AnalyzerTiming
}

// Run applies the analyzers to every package (which must be in dependency
// order, as Load returns them) and returns the surviving diagnostics sorted
// by position. //sysrcheck:ignore directives suppress matching diagnostics;
// a directive without a reason — or one that suppresses nothing — is itself
// a diagnostic.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	res, err := RunSuite(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// RunSuite is Run with per-analyzer timings. The package set is loaded and
// type-checked exactly once (by the caller, through Load) and shared by
// every analyzer; the call graph is built once; analyzers then execute in
// parallel, each against its own fact namespace and diagnostic buffer.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	prog := NewProgram(pkgs)
	dirs := collectDirectives(pkgs)

	type analyzerOut struct {
		diags  []Diagnostic
		timing AnalyzerTiming
		err    error
	}
	outs := make([]analyzerOut, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			out := &outs[i]
			defer func() {
				if r := recover(); r != nil {
					out.err = fmt.Errorf("%s panicked: %v", a.Name, r)
				}
			}()
			start := time.Now()
			facts := newFactSet()
			report := func(d Diagnostic) { out.diags = append(out.diags, d) }
			for _, pkg := range pkgs {
				if a.Run == nil {
					break
				}
				pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, facts: facts, report: report}
				if err := a.Run(pass); err != nil {
					out.err = fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
					return
				}
			}
			if a.RunProgram != nil {
				pp := &ProgramPass{Analyzer: a, Prog: prog, facts: facts, report: report}
				if err := a.RunProgram(pp); err != nil {
					out.err = fmt.Errorf("%s (program pass): %w", a.Name, err)
					return
				}
			}
			out.timing = AnalyzerTiming{Name: a.Name, Duration: time.Since(start)}
		}(i, a)
	}
	wg.Wait()

	res := &Result{}
	var diags []Diagnostic
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		diags = append(diags, out.diags...)
		res.Timings = append(res.Timings, out.timing)
	}

	// Directive filtering happens once, over the merged set: suppressed
	// diagnostics are dropped (marking their directive used), malformed
	// directives are findings, and a well-formed directive for an analyzer
	// in this run that suppressed nothing is a finding too — the escape
	// hatch must not outlive the condition it excused.
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if !dirs.suppresses(d) {
			kept = append(kept, d)
		}
	}
	diags = kept
	diags = append(diags, dirs.malformed...)
	diags = append(diags, dirs.unused(running)...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	sort.Slice(res.Timings, func(i, j int) bool { return res.Timings[i].Name < res.Timings[j].Name })
	res.Diags = diags
	return res, nil
}

// ---- shared helpers used by several analyzers ----

// pathTail returns the last segment of an import path: the analyzers match
// packages by tail ("exec", "rss", ...) so the same rules apply to
// systemr/internal/exec and to a fixture's fixture/exec.
func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// inCmd reports whether the import path has a "cmd" segment: main programs
// own their stdout and may panic on startup errors.
func inCmd(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package function), or nil for builtins, conversions, and calls
// of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// recvNamed returns the named type of a method's receiver (unwrapping one
// pointer), or nil for package-level functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMethodOn reports whether f is a method named name on type typeName
// declared in a package whose path tail is pkgTail.
func isMethodOn(f *types.Func, name, pkgTail, typeName string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	n := recvNamed(f)
	if n == nil || n.Obj().Name() != typeName {
		return false
	}
	p := n.Obj().Pkg()
	return p != nil && pathTail(p.Path()) == pkgTail
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// enclosingFuncName returns the name of the innermost FuncDecl in stack
// (a []ast.Node path from the file root), or "".
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// walkWithStack visits every node of root, giving the visitor the ancestor
// path (root first, node's parent last).
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			// Children are skipped, so no balancing nil callback follows.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// funcDisplayName renders fn as pkgtail.Name or pkgtail.Recv.Name for
// diagnostics.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if n := recvNamed(fn); n != nil {
		name = n.Obj().Name() + "." + name
	}
	if p := fn.Pkg(); p != nil {
		return pathTail(p.Path()) + "." + name
	}
	return name
}
