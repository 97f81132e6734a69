package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDeclaration checks that BENCHMARK.json is what -declaration prints from
// the tables in main.go, and that every name in them is one a driver accepts.
func TestDeclaration(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-declaration"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -declaration exited %d\n%s", code, stderr.String())
	}
	if !bytes.Equal(file, stdout.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in main.go; write it anew with: go run ./bench -declaration > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, sp := range specs {
		if !name.MatchString(sp.name) {
			t.Errorf("workload name %q", sp.name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
	}
}

// smoke runs every workload at 1/100 scale for the minimum number of rounds
// and returns the result file.
func smoke(t *testing.T, trace string) resultFile {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "0.01", "-seconds", "0", "-trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench exited %d\n%s", code, stderr.String())
	}
	if !bytes.HasSuffix(bytes.TrimSpace(stdout.Bytes()), []byte(`{"claim": null}`)) {
		t.Errorf("summary does not end with a null claim:\n%s", stdout.String())
	}
	file := "result.json"
	if trace == "1" {
		file = "result-trace.json"
	}
	res, err := readResult(filepath.Join(out, file))
	if err != nil {
		t.Fatal(err)
	}
	return *res
}

// TestSmoke checks, without a stopwatch, that every workload verifies, that
// every declared metric is emitted with its declared unit, and that the
// paper-unit counts of the single-client workloads repeat exactly.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		trace    string
		declared []metricDef
		exact    []string
	}{
		{"0", endToEnd, []string{"cost_per_stmt", "rsi_per_stmt", "cost_qerr_gmean", "space_amp"}},
		{"1", perLayer, []string{"compile.compilations", "storage.logical_reads_per_stmt"}},
	} {
		first, second := smoke(t, mode.trace), smoke(t, mode.trace)
		for _, sp := range specs {
			a, b := first.Runs[0][sp.name], second.Runs[0][sp.name]
			if a == nil || b == nil {
				t.Fatalf("trace %s: no result for %s", mode.trace, sp.name)
			}
			if a.Failed != 0 || a.Attempted == 0 {
				t.Errorf("trace %s: %s: %d of %d operations failed: %s", mode.trace, sp.name, a.Failed, a.Attempted, a.FirstError)
			}
			if len(a.Metrics) != len(mode.declared) {
				t.Errorf("trace %s: %s emits %d metrics, BENCHMARK.json declares %d", mode.trace, sp.name, len(a.Metrics), len(mode.declared))
			}
			for _, d := range mode.declared {
				if got, ok := a.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("trace %s: %s: metric %s: emitted %+v, declared unit %q", mode.trace, sp.name, d.name, got, d.unit)
				}
			}
			if sp.clients > 1 {
				continue // interleaving decides what concurrent clients count
			}
			for _, name := range mode.exact {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("trace %s: %s: %s differs between two runs of one seed: %v, %v",
						mode.trace, sp.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

// TestCompare checks -compare's verdicts and exit codes on result files made
// by hand: the same file twice is all "same", a count metric 2 % up is
// "worse" on a single-client workload and within the bound where clients
// interleave, and files of different seeds are not compared at all.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, rsi float64) string {
		runs := make([]map[string]*workloadResult, 5)
		for i := range runs {
			runs[i] = make(map[string]*workloadResult)
			for _, sp := range specs {
				runs[i][sp.name] = &workloadResult{Metrics: map[string]measured{"rsi_per_stmt": {Value: rsi, Unit: "count"}}}
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Env: environment{Seed: seed, Scale: 1, Seconds: 20}, Runs: runs}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, up, other := write("base.json", 1, 100), write("up.json", 1, 102), write("other.json", 2, 100)
	for _, c := range []struct {
		a, b string
		code int
		want []string
	}{
		{base, base, 0, []string{"same"}},
		{base, up, 1, []string{"point_lookup   rsi_per_stmt", "worse", "oltp_mixed     rsi_per_stmt", "0.05", "same"}},
		{up, base, 0, []string{"better"}},
		{base, other, 2, nil},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-compare", c.a, c.b}, &stdout, &stderr); code != c.code {
			t.Errorf("-compare %s %s exited %d, want %d\n%s%s", filepath.Base(c.a), filepath.Base(c.b), code, c.code, stdout.String(), stderr.String())
		}
		for _, w := range c.want {
			if !bytes.Contains(stdout.Bytes(), []byte(w)) {
				t.Errorf("-compare %s %s: no %q in\n%s", filepath.Base(c.a), filepath.Base(c.b), w, stdout.String())
			}
		}
	}
}

// TestAppend checks that -append adds a run to a result file of the same
// runs and refuses one of another seed.
func TestAppend(t *testing.T) {
	out := t.TempDir()
	args := []string{"-workload", "point_lookup", "-scale", "0.01", "-seconds", "0", "-append", "-out", out}
	var stdout, stderr bytes.Buffer
	for want := 1; want <= 2; want++ {
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench -append exited %d\n%s", code, stderr.String())
		}
		file, err := readResult(filepath.Join(out, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(file.Runs) != want {
			t.Errorf("result file holds %d runs after %d invocations", len(file.Runs), want)
		}
	}
	if code := run(append(args, "-seed", "2"), &stdout, &stderr); code != 2 {
		t.Errorf("bench -append with another seed exited %d, want 2", code)
	}
}
