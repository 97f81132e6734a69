// Command rsql is an interactive SQL shell over the systemr engine — the
// "on-line casual-user-oriented terminal interface" of the paper's
// introduction. Statements end with ';'. The shell is one session: BEGIN
// opens a transaction (the prompt becomes "txn>"), COMMIT and ROLLBACK end
// it; statements outside a transaction autocommit. Shell commands:
//
//	\d          list tables, indexes, and statistics
//	\stats      measured cost of the last statement
//	\cache      plan cache counters and the current catalog version
//	\metrics    engine metrics registry in Prometheus text format
//	\timing     toggle automatic cost reporting after each statement
//	\load emp   load the EMP/DEPT/JOB example database
//	\dump       print a SQL script recreating the database
//	\q          quit
//
// The --timing flag starts the shell with timing on.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"systemr"
	"systemr/internal/core"
	"systemr/internal/workload"
)

func main() {
	timing := flag.Bool("timing", false, "print measured cost (ExecStats) after each statement")
	flag.Parse()
	// Ctrl-C cancels the in-flight statement instead of killing the shell:
	// the governor observes the canceled context within a bounded number of
	// RSI calls and the statement returns ErrCanceled with its locks and
	// scans released.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	run(os.Stdin, os.Stdout, sigc, *timing)
}

// run drives the shell loop; factored out of main for testing. Signals
// arriving on sigc (nil for tests) cancel the statement being executed.
// timing starts the session with per-statement cost reporting on.
func run(input io.Reader, out io.Writer, sigc <-chan os.Signal, timing bool) {
	db := systemr.Open(systemr.Config{})
	conn := db.Conn()
	in := bufio.NewScanner(input)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintln(out, "systemr — System R access path selection, reproduced.")
	fmt.Fprintln(out, "Statements end with ';'.  \\d tables  \\stats cost  \\cache plans  \\metrics registry  \\load emp  \\dump script  \\q quit")

	var buf strings.Builder
	prompt := func() {
		switch {
		case buf.Len() > 0:
			fmt.Fprint(out, "...> ")
		case conn.TxnAborted():
			// The open transaction was rolled back by the engine (deadlock
			// victim or lock timeout); only ROLLBACK gets out.
			fmt.Fprint(out, "txn!> ")
		case conn.InTxn():
			fmt.Fprint(out, "txn> ")
		default:
			fmt.Fprint(out, "sql> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch {
			case trimmed == "\\q":
				return
			case trimmed == "\\d":
				fmt.Fprint(out, db.Tables())
			case trimmed == "\\stats":
				printStats(out, db.LastStats())
			case trimmed == "\\cache":
				printCache(out, db.PlanCacheStats())
			case trimmed == "\\metrics":
				if _, err := db.Metrics().WriteTo(out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			case trimmed == "\\timing":
				timing = !timing
				state := "off"
				if timing {
					state = "on"
				}
				fmt.Fprintln(out, "timing", state)
			case trimmed == "\\load emp":
				_ = conn.Close() // roll back any open transaction on the old DB
				db = workload.NewEmpDB(workload.EmpConfig{Emps: 2000, Depts: 50, Jobs: 10})
				conn = db.Conn()
				fmt.Fprintln(out, "loaded EMP (2000), DEPT (50), JOB (10) with indexes and statistics")
			case trimmed == "\\dump":
				if err := db.DumpSQL(out); err != nil {
					fmt.Fprintln(out, "error:", err)
				}
			default:
				fmt.Fprintln(out, "unknown command:", trimmed)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		start := time.Now()
		res, err := execInterruptible(conn, stmt, sigc)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprint(out, systemr.FormatResult(res))
			if timing {
				printStats(out, db.LastStats())
			}
			fmt.Fprintf(out, "time: %v\n", elapsed)
		}
		prompt()
	}
}

// printStats renders measured statement cost in the paper's units (also the
// \stats command's output).
func printStats(out io.Writer, s systemr.ExecStats) {
	fmt.Fprintf(out, "page fetches: %d  pages written: %d  RSI calls: %d  rows: %d  cost: %.2f\n",
		s.PageFetches, s.PagesWritten, s.RSICalls, s.Rows, s.Cost(core.DefaultW))
}

// printCache renders the plan cache counters (the \cache command's output).
func printCache(out io.Writer, s systemr.PlanCacheStats) {
	fmt.Fprintf(out, "plan cache: %d/%d entries  hits: %d  misses: %d  invalidations: %d  evictions: %d\n",
		s.Entries, s.Capacity, s.Hits, s.Misses, s.Invalidations, s.Evictions)
	fmt.Fprintf(out, "compilations: %d  catalog version: %d\n", s.Compilations, s.CatalogVersion)
}

// execInterruptible runs one statement on the session under a context
// canceled by the first signal to arrive during execution. Signals delivered
// between statements (e.g. a Ctrl-C that landed just after a statement
// finished) are drained first so they cannot cancel the next statement
// spuriously.
func execInterruptible(conn *systemr.Conn, stmt string, sigc <-chan os.Signal) (*systemr.Result, error) {
	if sigc == nil {
		return conn.Exec(stmt)
	}
drain:
	for {
		select {
		case <-sigc:
		default:
			break drain
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-sigc:
			cancel()
		case <-ctx.Done():
		}
	}()
	res, err := conn.ExecContext(ctx, stmt)
	cancel()
	<-watchDone
	return res, err
}
