//go:build !race

package sql

// Allocation bounds for lexing (the race detector changes allocation
// counts, and sync.Pool drops items at random under it, so this runs only
// without it).

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestLexAllocs: Parse and Lift lex into a pooled token slice, so a warm
// call allocates no token slice: each allocates fewer bytes than the
// text's tokens alone take (106 tokens, 3,392 bytes). Measured: Lift 1,280
// bytes in 8 allocations, Parse 2,776 bytes in 50; growing a slice per
// call cost 10,744 and 12,247 bytes. LeadingKeyword lexes one token and
// allocates nothing.
func TestLexAllocs(t *testing.T) {
	const text = "SELECT E.NAME, D.DNAME, J.TITLE, L.CITY, P.PNAME, S.AMT " +
		"FROM EMP E, DEPT D, JOB J, LOC L, PROJ P, SAL S " +
		"WHERE E.DNO = D.DNO AND E.JOB = J.JOB AND D.LOC = L.LOC AND E.PNO = P.PNO AND S.ENO = E.ENO " +
		"AND E.SAL > 1000 AND L.CITY = 'DENVER' AND J.TITLE <> 'CLERK' ORDER BY E.NAME"
	toks, err := appendTokens(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	tokBytes := uint64(len(toks)) * uint64(unsafe.Sizeof(token{}))
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Lift", func() {
			if _, _, ok := Lift(text); !ok {
				t.Fatal("text does not lex")
			}
		}},
		{"Parse", func() {
			if _, err := Parse(text); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := bytesPerCall(100, tc.f); got >= tokBytes {
			t.Errorf("%s: %d bytes per warm call, want < %d, the bytes of its %d tokens", tc.name, got, tokBytes, len(toks))
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if LeadingKeyword(text) != "SELECT" {
			t.Fatal("leading keyword is not SELECT")
		}
	}); n != 0 {
		t.Errorf("LeadingKeyword: %.0f allocations, want 0", n)
	}
}

// bytesPerCall returns the heap bytes f allocates per call, averaged over
// runs calls after a warm-up call, on one P as testing.AllocsPerRun
// measures.
func bytesPerCall(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
