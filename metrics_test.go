package systemr_test

import (
	"strings"
	"testing"
	"time"

	"systemr"
	"systemr/internal/lock"
	"systemr/internal/metrics"
)

// sampleMap indexes a registry snapshot by metric name.
func sampleMap(db *systemr.DB) map[string]metrics.Sample {
	out := make(map[string]metrics.Sample)
	for _, s := range db.Metrics().Snapshot() {
		out[s.Name] = s
	}
	return out
}

// TestMetricsStatementCounters runs a small session and checks the
// event-driven instruments: statement count, error count, latency histogram
// observations, compile timings, and the measured-cost counters fed by the
// per-statement accumulators.
func TestMetricsStatementCounters(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1), (2), (3)")
	db.MustExec("UPDATE STATISTICS")
	db.MustExec("SELECT A FROM T")
	if _, err := db.Exec("SELECT BOGUS FROM NOWHERE"); err == nil {
		t.Fatal("bad statement did not error")
	}
	m := sampleMap(db)
	if got := m["systemr_statements_total"].Value; got != 5 {
		t.Fatalf("statements_total = %g, want 5", got)
	}
	if got := m["systemr_statement_errors_total"].Value; got != 1 {
		t.Fatalf("statement_errors_total = %g, want 1", got)
	}
	if got := m["systemr_statement_seconds"].Count; got != 5 {
		t.Fatalf("statement_seconds count = %d, want 5", got)
	}
	// Two compilations timed: the good SELECT and the failing one (which
	// parses, then dies in semantic analysis inside the timed compile).
	if got := m["systemr_compile_seconds"].Count; got != 2 {
		t.Fatalf("compile_seconds count = %d, want 2", got)
	}
	// The INSERT affected 3 rows and the SELECT returned 3; the SELECT cost
	// > 0 in the paper's units.
	if got := m["systemr_statement_rows_total"].Value; got != 6 {
		t.Fatalf("statement_rows_total = %g, want 6", got)
	}
	if got := m["systemr_statement_cost_total"].Value; got <= 0 {
		t.Fatalf("statement_cost_total = %g, want > 0", got)
	}
}

// TestMetricsCollectGauges checks the collect-on-scrape gauges reflect live
// engine state: buffer-pool counters and hit ratio, and plan-cache counters.
func TestMetricsCollectGauges(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1), (2), (3)")
	db.MustExec("SELECT A FROM T")
	db.MustExec("SELECT A FROM T")
	m := sampleMap(db)
	reads, fetches := m["systemr_buffer_logical_reads"].Value, m["systemr_buffer_page_fetches"].Value
	if reads <= 0 || fetches <= 0 || fetches > reads {
		t.Fatalf("buffer gauges: reads=%g fetches=%g", reads, fetches)
	}
	wantRatio := 1 - fetches/reads
	if got := m["systemr_buffer_hit_ratio"].Value; got != wantRatio {
		t.Fatalf("hit ratio = %g, want %g", got, wantRatio)
	}
	if got := m["systemr_plan_cache_hits"].Value; got != 1 {
		t.Fatalf("plan_cache_hits = %g, want 1", got)
	}
	if got := m["systemr_plan_cache_entries"].Value; got != 1 {
		t.Fatalf("plan_cache_entries = %g, want 1", got)
	}
	if got := m["systemr_locks_outstanding"].Value; got != 0 {
		t.Fatalf("locks_outstanding = %g, want 0 between statements", got)
	}
}

// TestMetricsGovernorAborts checks a budget-tripped statement lands in both
// the error and governor-abort counters.
func TestMetricsGovernorAborts(t *testing.T) {
	db := openDB(systemr.Config{MaxRowsScanned: 2})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1), (2)")
	if _, err := db.Exec("SELECT T.A FROM T, T T2"); err == nil {
		t.Fatal("budget was not enforced")
	}
	m := sampleMap(db)
	if got := m["systemr_governor_aborts_total"].Value; got != 1 {
		t.Fatalf("governor_aborts_total = %g, want 1", got)
	}
	if got := m["systemr_statement_errors_total"].Value; got != 1 {
		t.Fatalf("statement_errors_total = %g, want 1", got)
	}
}

// TestMetricsLockWaitObserved forces a writer to wait behind another writer
// and checks the lock-wait histogram records the blocked acquisition.
// (Snapshot readers take no table locks, so only writers can wait.)
func TestMetricsLockWaitObserved(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	db.MustExec("INSERT INTO T VALUES (1)")
	held := db.Locks().TryAcquire([]lock.Request{{Table: "T", Mode: lock.Exclusive}})
	if held == nil {
		t.Fatal("could not take the exclusive lock")
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("UPDATE T SET A = 2 WHERE A = 1")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	held.Release()
	if err := <-done; err != nil {
		t.Fatalf("blocked UPDATE: %v", err)
	}
	m := sampleMap(db)
	if got := m["systemr_lock_wait_seconds"].Count; got < 1 {
		t.Fatalf("lock_wait_seconds count = %d, want >= 1", got)
	}
	if got := m["systemr_lock_wait_seconds"].Value; got <= 0 {
		t.Fatalf("lock_wait_seconds sum = %g, want > 0", got)
	}
}

// TestMetricsWriteTo checks DB.Metrics().WriteTo emits the exposition format
// end to end over a live database.
func TestMetricsWriteTo(t *testing.T) {
	db := openDB(systemr.Config{})
	db.MustExec("CREATE TABLE T (A INTEGER)")
	var sb strings.Builder
	if _, err := db.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"# HELP systemr_statements_total",
		"# TYPE systemr_statement_seconds histogram",
		`systemr_statement_seconds_bucket{le="+Inf"} 1`,
		"systemr_buffer_capacity_pages 64",
		"systemr_catalog_version 2",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("exposition lacks %q:\n%s", frag, out)
		}
	}
}
