package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A sample is one metric's values over the runs of a result file.
type sample struct {
	median, spread float64 // spread = (q3 − q1) / median, 0 for fewer than four runs
	n              int
}

func sampleOf(file *resultFile, workload, metric string) sample {
	var xs []float64
	for _, run := range file.Runs {
		if res, ok := run[workload]; ok {
			if m, ok := res.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	s := sample{median: median(xs), n: len(xs)}
	if len(xs) >= 4 && s.median != 0 {
		sort.Float64s(xs)
		s.spread = (quantile(xs, 0.75) - quantile(xs, 0.25)) / s.median
	}
	return s
}

// verdict judges new against base for one metric: unresolved when either
// side's own spread exceeds the bound, else worse or better when the medians
// differ by more than the bound in that direction, else same.
func verdict(base, next sample, better string, bound float64) string {
	if base.n == 0 || next.n == 0 || base.median == 0 {
		return "missing"
	}
	if base.spread > bound || next.spread > bound {
		return "unresolved"
	}
	change := next.median/base.median - 1
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}

// compareFiles prints one row per workload × end-to-end metric and returns 1
// when any row is worse. The two files must hold the same runs — seed, scale,
// seconds, tracing off — of two builds: its bounds are those for runs of one
// seed, and a run at another scale or length measures something else.
func compareFiles(basePath, nextPath string, stdout, stderr io.Writer) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	next, err := readResult(nextPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, n := base.Env, next.Env
	if !b.sameRuns(n) || b.Trace {
		fmt.Fprintf(stderr, "bench: not comparable: %s has seed %d, scale %g, %g s, trace %v; %s has seed %d, scale %g, %g s, trace %v\n",
			basePath, b.Seed, b.Scale, b.Seconds, b.Trace, nextPath, n.Seed, n.Scale, n.Seconds, n.Trace)
		return 2
	}
	fmt.Fprintf(stdout, "%-14s %-22s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "base", "new", "ratio", "bound", "spread0", "spread1", "verdict")
	worse := false
	for _, sp := range specs {
		for _, d := range endToEnd {
			b, n := sampleOf(base, sp.name, d.name), sampleOf(next, sp.name, d.name)
			if b.n == 0 && n.n == 0 {
				continue
			}
			bound := d.compareBound(sp)
			v := verdict(b, n, d.better, bound)
			worse = worse || v == "worse"
			ratio := 0.0
			if b.median != 0 {
				ratio = n.median / b.median
			}
			fmt.Fprintf(stdout, "%-14s %-22s %14.4f %14.4f %8.4f %6.2f %8.4f %8.4f  %s\n",
				sp.name, d.name, b.median, n.median, ratio, bound, b.spread, n.spread, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}
