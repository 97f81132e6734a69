// Package analysis is sysrcheck: a project-specific static-analysis suite
// that enforces this codebase's load-bearing invariants at build time —
// the ones the governor (PR 1), the operator contract (PR 2), the I/O
// attribution split (PR 5), the transaction layer (PR 6/8), and the lock
// hierarchy introduced but nothing enforced:
//
//   - govtick: tuple/page-producing loops in the executor, the RSS, and the
//     sorter contain a governor budget checkpoint; every NextBatch body in
//     the batched operator protocol reaches one at least once per batch;
//     and a producing loop anywhere else ticks locally unless every call
//     chain reaching it passes through a ticking function.
//   - nakedpanic: library code panics only through the sanctioned
//     internal/check helper (contained at the statement boundary).
//   - errlost: errors from Close/Unlock/Release are not silently dropped.
//   - noprint: library code never writes to stdout/stderr.
//   - layering: one table of layer boundaries — the executor layers never
//     read the buffer pool's DB-global IOStats for per-operator or batch
//     deltas (PR 5); row versions are read only through the RSS visibility
//     boundary, never as raw records in exec or txn (PR 8); every engine
//     mutation flows through the undo-logged write path (PR 6).
//     Its last row forbids sync/atomic's function forms everywhere: a
//     shared counter is atomic by its type (atomic.Int64), never plainly.
//   - lockrank: mutexes and table locks are acquired in the declared rank
//     order, program-wide — no lock.Manager acquisition while holding a
//     buffer-pool, registry, or page mutex (the deadlock shapes the runtime
//     wait-for-graph detector can only observe, caught at build time).
//
// Resource release is not among them: open scans, granted locks and pinned
// snapshots are counted by the engine's own gauges, and the tests check
// those after every statement of every entry point, under fault injection.
//
// The suite mirrors the shape of golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic, a multichecker driver in cmd/sysrcheck, want-annotated
// fixtures) but is built on the standard library alone, implementing the
// subset of x/tools that sysrcheck needs, so the module keeps no
// third-party dependency.
//
// Every Run loads and type-checks each package exactly once, shared by all
// analyzers, into one types universe, and builds one whole-program call
// graph (static calls plus class-hierarchy-resolved interface dispatch)
// over the load. Per-package analyzers implement Run; the interprocedural
// ones implement RunProgram and see every package and the graph at once,
// so a property that crosses packages is a plain map keyed by types
// objects — no fact store is needed. Analyzers execute in parallel: the
// loaded packages and the call graph are read-only by then.
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
	// Name identifies the analyzer in diagnostics and in -checks.
	Name string
	// Doc is the one-line invariant statement.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	// Packages arrive in dependency order. Optional when RunProgram is set.
	Run func(*Pass) error
	// RunProgram, when set, runs once after every package's Run, with the
	// whole program — all packages and the call graph — in view. The
	// interprocedural analyzers live here.
	RunProgram func(*ProgramPass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole loaded program (all packages and the call graph).
	Prog *Program

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

// ProgramPass is one analyzer's whole-program view, handed to RunProgram
// after every package has been visited.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

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

// Program is one loaded, type-checked program: every package of a Run in
// dependency order, the shared file set, and the call graph built once over
// all of them.
type Program struct {
	Pkgs      []*Package
	Fset      *token.FileSet
	CallGraph *CallGraph
}

// NewProgram assembles the program view over pkgs (dependency order, as
// Load returns them) and builds the call graph.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, CallGraph: buildCallGraph(pkgs)}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	return prog
}

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
	GovTick,
	NakedPanic,
	ErrLost,
	NoPrint,
	Layering,
	LockRank,
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
// order, as Load returns them) and returns the diagnostics sorted by
// position. There is no way to silence one: a false positive is fixed in
// the analyzer.
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
// parallel, each into its own diagnostic buffer.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	prog := NewProgram(pkgs)

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
			report := func(d Diagnostic) { out.diags = append(out.diags, d) }
			for _, pkg := range pkgs {
				if a.Run == nil {
					break
				}
				pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, report: report}
				if err := a.Run(pass); err != nil {
					out.err = fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
					return
				}
			}
			if a.RunProgram != nil {
				pp := &ProgramPass{Analyzer: a, Prog: prog, report: report}
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

// anyNode reports whether pred holds for some node in n.
func anyNode(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		found = found || n != nil && pred(n)
		return !found
	})
	return found
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
