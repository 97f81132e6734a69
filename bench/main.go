// Command bench is the repository's benchmark: four seed-generated
// workloads over the systemr engine, end-to-end metrics in wall-clock and in
// the paper's own units (COST = PAGE FETCHES + W·RSI CALLS), and per-layer
// metrics from a separate traced pass. BENCHMARK.json at the repository root
// declares it; README.md in this directory explains every workload and
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// A metricDef names one metric. BENCHMARK.json is printed from these tables
// (-declaration) and bench_test.go checks that the file at the repository
// root is that print.
type metricDef struct {
	name, unit, better string
	// bound is BENCHMARK.json's (end-to-end metrics only): the share by which
	// the median of a set of runs may worsen. Whoever reads it compares sets
	// of runs that each have another seed, on a box whose speed drifts, so it
	// covers what a seed and the hour of the day move.
	bound float64
	// same is -compare's bound, for two files of runs of one seed; sameMulti
	// replaces it on a workload whose clients interleave. They are ISSUE
	// 13's bounds.
	same, sameMulti float64
}

// compareBound is the bound -compare applies to d on sp.
func (d metricDef) compareBound(sp spec) float64 {
	if sp.clients > 1 {
		return d.sameMulti
	}
	return d.same
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.10, 0.10},
	{"stmt_per_s", "1/s", "higher", 0.25, 0.10, 0.10},
	{"stmt_p50_us", "us", "lower", 0.25, 0.10, 0.10},
	{"stmt_p95_us", "us", "lower", 0.25, 0.10, 0.10},
	{"cost_per_stmt", "pages", "lower", 0.05, 0.01, 0.05},
	{"rsi_per_stmt", "count", "lower", 0.05, 0.01, 0.05},
	{"cost_qerr_gmean", "ratio", "lower", 0.10, 0.01, 0.05},
	{"allocs_per_stmt", "count", "lower", 0.05, 0.05, 0.05},
	{"alloc_bytes_per_stmt", "B", "lower", 0.05, 0.05, 0.05},
	{"space_amp", "ratio", "lower", 0.01, 0.01, 0.01},
}

var perLayer = []metricDef{
	{name: "systemr.self_us", unit: "us", better: "lower"},
	{name: "systemr.prepared_run_p50_us", unit: "us", better: "lower"},
	{name: "systemr.adhoc_hit_p50_us", unit: "us", better: "lower"},
	{name: "systemr.adhoc_miss_p50_us", unit: "us", better: "lower"},
	{name: "systemr.dml_p50_us", unit: "us", better: "lower"},
	{name: "systemr.txn_p50_us", unit: "us", better: "lower"},
	{name: "systemr.materialise_ns_per_row", unit: "ns", better: "lower"},
	{name: "sql.normalize_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sem.analyze_us", unit: "us", better: "lower"},
	{name: "core.optimize_us", unit: "us", better: "lower"},
	{name: "core.candidates_per_stmt", unit: "count", better: "lower"},
	{name: "core.solutions_per_stmt", unit: "count", better: "lower"},
	{name: "core.rows_qerr_gmean", unit: "ratio", better: "lower"},
	{name: "compile.cache_lookup_us", unit: "us", better: "lower"},
	{name: "compile.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "compile.compilations", unit: "count", better: "lower"},
	{name: "compile.cache_evictions", unit: "count", better: "lower"},
	{name: "compile.feedback_recompiles", unit: "count", better: "lower"},
	{name: "catalog.update_statistics_ms", unit: "ms", better: "lower"},
	{name: "catalog.histogram_buckets", unit: "count", better: "higher"},
	{name: "exec.run_us", unit: "us", better: "lower"},
	{name: "exec.ns_per_rsi_call", unit: "ns", better: "lower"},
	{name: "exec.scan_self_share", unit: "ratio", better: "lower"},
	{name: "exec.join_self_share", unit: "ratio", better: "lower"},
	{name: "exec.sort_self_share", unit: "ratio", better: "lower"},
	{name: "exec.agg_self_share", unit: "ratio", better: "lower"},
	{name: "exec.project_self_share", unit: "ratio", better: "lower"},
	{name: "exec.batches_per_stmt", unit: "count", better: "lower"},
	{name: "xsort.sort_ns_per_row", unit: "ns", better: "lower"},
	{name: "xsort.temp_pages_per_stmt", unit: "pages", better: "lower"},
	{name: "rss.segscan_ns_per_row", unit: "ns", better: "lower"},
	{name: "rss.indexscan_ns_per_row", unit: "ns", better: "lower"},
	{name: "rss.versions_scanned_per_row_returned", unit: "ratio", better: "lower"},
	{name: "rss.versions_skipped_share", unit: "ratio", better: "lower"},
	{name: "rss.vacuum_runs", unit: "count", better: "higher"},
	{name: "rss.vacuum_reclaimed", unit: "count", better: "higher"},
	{name: "rss.vacuum_ms", unit: "ms", better: "lower"},
	{name: "rss.chain_len_p95", unit: "count", better: "lower"},
	{name: "btree.seek_ns", unit: "ns", better: "lower"},
	{name: "btree.pages_per_seek", unit: "pages", better: "lower"},
	{name: "btree.height", unit: "count", better: "lower"},
	{name: "storage.fetch_hit_ns", unit: "ns", better: "lower"},
	{name: "storage.fetch_miss_ns", unit: "ns", better: "lower"},
	{name: "storage.hit_share", unit: "ratio", better: "higher"},
	{name: "storage.fetches_per_stmt", unit: "pages", better: "lower"},
	{name: "storage.evictions_per_stmt", unit: "pages", better: "lower"},
	{name: "storage.logical_reads_per_stmt", unit: "pages", better: "lower"},
	{name: "storage.read_versioned_ns", unit: "ns", better: "lower"},
	{name: "storage.bytes_per_row", unit: "B", better: "lower"},
	{name: "lock.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "lock.wait_share", unit: "ratio", better: "lower"},
	{name: "lock.deadlocks", unit: "count", better: "lower"},
	{name: "lock.timeouts", unit: "count", better: "lower"},
	{name: "txn.begin_finish_ns", unit: "ns", better: "lower"},
	{name: "txn.commits", unit: "count", better: "higher"},
	{name: "txn.rollbacks", unit: "count", better: "lower"},
	{name: "txn.write_conflicts", unit: "count", better: "lower"},
	{name: "txn.retry_share", unit: "ratio", better: "lower"},
	{name: "governor.tick_ns", unit: "ns", better: "lower"},
	{name: "metrics.scrape_us", unit: "us", better: "lower"},
	{name: "trace.compile_share", unit: "ratio", better: "lower"},
	{name: "trace.exec_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// A spec is one workload of the benchmark: how its engine is opened, how
// many closed-loop clients replay it, and how its generator is sized.
type spec struct {
	name, why   string
	bufferPages int
	clients     int
	writes      bool // the statement lists insert, update or delete
	// build generates the full-size instance at the given scale; small
	// generates the ≤60-row copy the reference evaluator can cross-check.
	build func(seed int64, scale float64) workload
	small func(seed int64) workload
}

func scaled(n int, scale float64, floor int) int { return max(int(float64(n)*scale), floor) }

// Round sizes are fixed numbers of statements, chosen so that a round takes
// about a second on the 2-core reference box: twenty rounds fill the default
// twenty-second run, and per-statement counts do not depend on the clock.
var specs = []spec{
	{
		name:        "point_lookup",
		why:         "prepared point, range and unique-key join reads on resident data: statement lifecycle, B-tree seek and buffer-hit path; compile bypassed",
		bufferPages: 4096, clients: 1,
		build: func(seed int64, scale float64) workload {
			return newPointLookup(seed, scaled(20000, scale, 100), scaled(25000, scale, 50))
		},
		small: func(seed int64) workload { return newPointLookup(seed, 60, 40) },
	},
	{
		name:        "adhoc_join",
		why:         "literal 2-6 table joins over eight small relations, 75% texts new to the plan cache: parse, sem, optimizer DP and cache dominate; executor idle",
		bufferPages: 4096, clients: 1,
		build: func(seed int64, scale float64) workload {
			return newAdhocJoin(seed, scale, 1<<30, scaled(1200, scale, 30))
		},
		small: func(seed int64) workload { return newAdhocJoin(seed, 1, 6, 40) },
	},
	{
		name:        "analytic_skew",
		why:         "cached scans, skewed joins, sorts and aggregates over a zipfian fact table ten times the buffer pool: exec, rss, storage misses and xsort; compile is noise",
		bufferPages: 256, clients: 1,
		build: func(seed int64, scale float64) workload {
			return newAnalyticSkew(seed, scaled(200000, scale, 2000), 1000, 20)
		},
		small: func(seed int64) workload { return newAnalyticSkew(seed, 60, 40, 5) },
	},
	{
		name:        "oltp_mixed",
		why:         "two clients mixing prepared reads with transfer transactions, inserts, deletes and snapshot scans: version chains, undo, table X locks and vacuum beside readers",
		bufferPages: 1024, clients: omClients, writes: true,
		build: func(seed int64, scale float64) workload {
			return newOltpMixed(seed, scaled(50000, scale, 200), scaled(400, scale, 20))
		},
		small: func(seed int64) workload { return newOltpMixed(seed, 60, 60) },
	},
}

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 20

// declaration returns BENCHMARK.json.
func declaration() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	d := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		d.Workloads = append(d.Workloads, workload{sp.name, sp.why})
	}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, metric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	out, _ := json.MarshalIndent(d, "", "  ") // strings and numbers always marshal
	return append(out, '\n')
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
	repeat   int
	append   bool
}

// environment is recorded in every result file.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
}

// sameRuns reports whether two result files hold runs of the same inputs and
// length, which is what makes their metrics comparable.
func (e environment) sameRuns(o environment) bool {
	return e.Seed == o.Seed && e.Scale == o.Scale && e.Seconds == o.Seconds && e.Trace == o.Trace
}

type resultFile struct {
	Env  environment                  `json:"env"`
	Runs []map[string]*workloadResult `json:"runs"` // one map of workload name → result per repetition
	// Claim is always null: the benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var o options
	var trace int
	var compare, declare bool
	flags.StringVar(&o.workload, "workload", "", "run only this workload and end with the one-line JSON result (default: all four, as a table)")
	flags.Int64Var(&o.seed, "seed", 1, "workload generator seed")
	flags.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured pass per workload")
	flags.IntVar(&trace, "trace", 0, "1 = make the traced pass and report the per-layer metrics instead of the end-to-end ones")
	flags.Float64Var(&o.scale, "scale", 1, "multiplies relation and round sizes (the smoke test uses 0.01)")
	flags.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	flags.IntVar(&o.repeat, "repeat", 1, "run the whole benchmark this many times into one result file")
	flags.BoolVar(&o.append, "append", false, "add the runs to the result file already in -out, so that two builds can take turns")
	flags.BoolVar(&compare, "compare", false, "compare two result files of one seed: bench -compare base.json new.json")
	flags.BoolVar(&declare, "declaration", false, "print BENCHMARK.json and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if declare {
		if _, err := stdout.Write(declaration()); err != nil {
			return 1
		}
		return 0
	}
	if compare {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare base.json new.json")
			return 2
		}
		return compareFiles(flags.Arg(0), flags.Arg(1), stdout, stderr)
	}

	var chosen []spec
	for _, sp := range specs {
		if o.workload == "" || o.workload == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}

	file := resultFile{Env: environment{Commit: commit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace}}
	path := filepath.Join(o.outDir, "result.json")
	if o.trace {
		path = filepath.Join(o.outDir, "result-trace.json")
	}
	if o.append {
		old, err := readResult(path)
		if err == nil && !old.Env.sameRuns(file.Env) {
			err = fmt.Errorf("%s holds runs of another seed, scale or length", path)
		}
		if err == nil {
			file.Runs = old.Runs
		} else if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: -append: %v\n", err)
			return 2
		}
	}
	failed := false
	var last *workloadResult
	for rep := 0; rep < o.repeat; rep++ {
		results := make(map[string]*workloadResult)
		for _, sp := range chosen {
			res, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			if res.Failed > 0 {
				failed = true
				fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n", sp.name, res.Failed, res.Attempted, res.FirstError)
			}
			results[sp.name], last = res, res
			printTable(stdout, sp.name, res)
		}
		file.Runs = append(file.Runs, results)
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	if o.workload != "" {
		// The one-line result a driver reads: exactly these four keys.
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{!failed, last.Attempted, last.Failed, make(map[string]value)}
		for n, m := range last.Metrics {
			line.Metrics[n] = value{m.Value, m.Unit}
		}
		out, _ := json.Marshal(line)
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprintln(stdout, `{"claim": null}`)
	}
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints one row per metric: workload, name, value, unit and,
// where the metric is a distribution, its quartiles and sample count.
func printTable(w io.Writer, workload string, res *workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-38s %16.4f %-6s", workload, n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, "  q1=%.4f q3=%.4f n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}
