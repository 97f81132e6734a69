package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRSICloseFixture(t *testing.T) { runFixture(t, RSIClose, "rsiclose") }

func TestGovTickFixture(t *testing.T) {
	diags := runFixture(t, GovTick, "govtick")
	// The reasonless directive is itself a finding, reported at the
	// directive's own line.
	path := filepath.Join("testdata", "govtick", "exec", "loops.go")
	line := lineOfTrimmed(t, path, "//sysrcheck:ignore govtick")
	expectAt(t, diags, path, line, "requires a reason")
}

// The batched-protocol rule (each nextBatch body reaches a checkpoint) runs
// under govtick; its cases live in testdata/govtick/exec/batch.go. Every
// finding there is govtick's and answers a want comment.
func TestGovBatchFixture(t *testing.T) {
	diags := runFixture(t, GovTick, "govtick")
	path := filepath.Join("testdata", "govtick", "exec", "batch.go")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Count(string(data), "// want ")
	got := 0
	for _, d := range diags {
		if d.Pos.Filename != path {
			continue
		}
		got++
		if d.Analyzer != GovTick.Name {
			t.Errorf("%s:%d: finding from %q, want %q", path, d.Pos.Line, d.Analyzer, GovTick.Name)
		}
	}
	if want == 0 || got != want {
		t.Errorf("%s: %d findings, want %d (one per want comment)", path, got, want)
	}
}

func TestNakedPanicFixture(t *testing.T) { runFixture(t, NakedPanic, "nakedpanic") }

func TestErrLostFixture(t *testing.T) { runFixture(t, ErrLost, "errlost") }

func TestNoPrintFixture(t *testing.T) { runFixture(t, NoPrint, "noprint") }

// The layering analyzer's table rows keep one fixture per discipline.
func TestStmtIOFixture(t *testing.T) { runFixture(t, Layering, "stmtio") }

func TestTxnUndoFixture(t *testing.T) { runFixture(t, Layering, "txnundo") }

func TestMVCCVisFixture(t *testing.T) { runFixture(t, Layering, "mvccvis") }

func TestLockRankFixture(t *testing.T) { runFixture(t, LockRank, "lockrank") }

// The typed-atomics row of layering: every function-form sync/atomic call
// is a finding, including the atomic half of a mixed plain/atomic access;
// typed atomics are not.
func TestAtomicFieldFixture(t *testing.T) { runFixture(t, Layering, "atomicfield") }

func TestSnapPinFixture(t *testing.T) { runFixture(t, SnapPin, "snappin") }

// The unticked-reachability rule of govtick: loops outside exec, rss, and
// xsort that some non-ticking entry point reaches.
func TestGovPropFixture(t *testing.T) { runFixture(t, GovTick, "govprop") }
