// Command sysrcheck runs the project's static-analysis suite over the
// module:
//
//	go run ./cmd/sysrcheck ./...
//
// It loads and type-checks the matched packages exactly once (standard
// library only — no module proxy needed), runs every analyzer in the suite
// in parallel over the shared load, prints the surviving diagnostics in
// file/line order, and exits non-zero when any remain. CI runs it as a
// hard gate. A finding cannot be silenced: a false positive is fixed in the
// analyzer.
//
// Flags:
//
//	-checks a,b   run only the named analyzers
//	-list         print the suite and exit
//	-sarif        write the findings as a SARIF 2.1.0 log (CI artifact)
//	-timings      print per-analyzer wall-clock times to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"systemr/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	sarifOut := flag.Bool("sarif", false, "write findings as SARIF 2.1.0 to stdout")
	timings := flag.Bool("timings", false, "print per-analyzer wall-clock times to stderr")
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysrcheck:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysrcheck:", err)
		os.Exit(2)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysrcheck:", err)
		os.Exit(2)
	}
	loadStart := time.Now()
	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysrcheck:", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)
	res, err := analysis.RunSuite(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysrcheck:", err)
		os.Exit(2)
	}

	if *timings {
		fmt.Fprintf(os.Stderr, "load+typecheck: %d pkgs in %v (shared by all analyzers)\n", len(pkgs), loadTime.Round(time.Millisecond))
		sorted := append([]analysis.AnalyzerTiming(nil), res.Timings...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration > sorted[j].Duration })
		for _, tm := range sorted {
			fmt.Fprintf(os.Stderr, "%-12s %v\n", tm.Name, tm.Duration.Round(time.Microsecond))
		}
	}

	if *sarifOut {
		if err := writeSARIF(os.Stdout, root, suite, res.Diags); err != nil {
			fmt.Fprintln(os.Stderr, "sysrcheck:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diags {
			fmt.Println(d)
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "sysrcheck: %d finding(s)\n", len(res.Diags))
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return analysis.Suite, nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analysis.Suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out, nil
}
