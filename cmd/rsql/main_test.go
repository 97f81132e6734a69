package main

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"systemr"
	"systemr/internal/workload"
)

// script runs the shell over a scripted session and returns its output.
func script(t *testing.T, lines ...string) string {
	t.Helper()
	var out strings.Builder
	run(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, nil, false)
	return out.String()
}

func TestShellSession(t *testing.T) {
	out := script(t,
		"CREATE TABLE T (A INTEGER, B VARCHAR);",
		"INSERT INTO T VALUES (1, 'one'), (2, 'two');",
		"UPDATE STATISTICS;",
		"SELECT A, B FROM T",
		"  ORDER BY A DESC;",
		"\\stats",
		"\\d",
		"EXPLAIN SELECT A FROM T WHERE A = 1;",
		"EXPLAIN ANALYZE SELECT A FROM T WHERE A = 1;",
		"BROKEN SQL;",
		"\\nonsense",
		"\\q",
	)
	for _, frag := range []string{
		"sql> ",
		"...> ",                    // continuation prompt for the split SELECT
		"(2 rows)",                 // query output
		"two",                      // descending order puts 2 first
		"rows: 2",                  // \stats
		"T (A INTEGER, B VARCHAR)", // \d
		"QUERY BLOCK (main)",       // EXPLAIN
		"| act rows=",              // EXPLAIN ANALYZE actuals
		"error:",                   // broken statement
		"unknown command:",         // bad shell command
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("session output lacks %q:\n%s", frag, out)
		}
	}
	// Descending order actually honored in the printed table.
	if strings.Index(out, "two") > strings.Index(out, "one") {
		t.Fatalf("DESC order not reflected:\n%s", out)
	}
}

// TestShellTiming toggles \timing and checks a stats line follows the next
// statement (and stops following once toggled back off).
func TestShellTiming(t *testing.T) {
	out := script(t,
		"CREATE TABLE T (A INTEGER);",
		"INSERT INTO T VALUES (1), (2), (3);",
		"\\timing",
		"SELECT A FROM T;",
		"\\timing",
		"\\q",
	)
	if !strings.Contains(out, "timing on") || !strings.Contains(out, "timing off") {
		t.Fatalf("timing toggle output:\n%s", out)
	}
	idx := strings.Index(out, "timing on")
	if idx < 0 || !strings.Contains(out[idx:], "RSI calls:") {
		t.Fatalf("no stats line after timing on:\n%s", out)
	}
	if !strings.Contains(out[idx:], "rows: 3") {
		t.Fatalf("timing stats lack row count:\n%s", out)
	}
}

// TestShellCache runs a SELECT twice and checks \cache reports the repeat as
// a hit, plus a catalog version that each catalog change moved: the DDL and
// the statistics refresh, both before the SELECTs.
func TestShellCache(t *testing.T) {
	out := script(t,
		"CREATE TABLE T (A INTEGER);",
		"INSERT INTO T VALUES (1);",
		"UPDATE STATISTICS;",
		"SELECT A FROM T;",
		"SELECT A FROM T;",
		"\\cache",
		"\\q",
	)
	if !strings.Contains(out, "hits: 1") || !strings.Contains(out, "misses: 1") {
		t.Fatalf("\\cache counters:\n%s", out)
	}
	if !strings.Contains(out, "catalog version: 3") { // CREATE TABLE bumped 1 -> 2, UPDATE STATISTICS 2 -> 3
		t.Fatalf("\\cache catalog version:\n%s", out)
	}
}

// TestShellMetrics checks \metrics emits the Prometheus exposition with the
// statement counters and buffer-pool gauges populated by the session so far.
func TestShellMetrics(t *testing.T) {
	out := script(t,
		"CREATE TABLE T (A INTEGER);",
		"INSERT INTO T VALUES (1), (2);",
		"SELECT A FROM T;",
		"\\metrics",
		"\\q",
	)
	for _, frag := range []string{
		"# TYPE systemr_statements_total counter",
		"systemr_statements_total 3",
		"# TYPE systemr_statement_seconds histogram",
		"systemr_statement_seconds_count 3",
		"# TYPE systemr_buffer_hit_ratio gauge",
		"systemr_plan_cache_misses 1",
		"PAGE FETCHES + W*(RSI CALLS), W = 0.033",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("\\metrics output lacks %q:\n%s", frag, out)
		}
	}
}

func TestShellLoadEmp(t *testing.T) {
	out := script(t,
		"\\load emp",
		"SELECT COUNT(*) FROM EMP;",
		"\\q",
	)
	if !strings.Contains(out, "loaded EMP (2000)") || !strings.Contains(out, "2000") {
		t.Fatalf("load emp session:\n%s", out)
	}
}

func TestShellDump(t *testing.T) {
	out := script(t,
		"CREATE TABLE T (A INTEGER);",
		"INSERT INTO T VALUES (7);",
		"\\dump",
		"\\q",
	)
	if !strings.Contains(out, "CREATE TABLE T (A INTEGER);") ||
		!strings.Contains(out, "INSERT INTO T VALUES (7);") {
		t.Fatalf("dump output:\n%s", out)
	}
}

// TestInterruptCancelsStatement delivers a "Ctrl-C" mid-statement and checks
// that only the in-flight statement dies — the shell's database stays usable.
func TestInterruptCancelsStatement(t *testing.T) {
	conn := workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10}).Conn()
	sigc := make(chan os.Signal, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		sigc <- os.Interrupt
	}()
	// Unindexed self-join: ~4M tuple visits, far longer than the signal delay.
	_, err := execInterruptible(conn,
		"SELECT COUNT(*) FROM EMP E1, EMP E2 WHERE E1.SAL < E2.SAL", sigc)
	if !errors.Is(err, systemr.ErrCanceled) {
		t.Fatalf("interrupted statement: got %v, want ErrCanceled", err)
	}
	// A stale signal queued between statements must not cancel the next one.
	sigc <- os.Interrupt
	res, err := execInterruptible(conn, "SELECT COUNT(*) FROM EMP", sigc)
	if err != nil {
		t.Fatalf("follow-up statement after interrupt: %v", err)
	}
	if res.Rows[0][0].(int64) != 2000 {
		t.Fatalf("follow-up count = %v, want 2000", res.Rows[0][0])
	}
}
