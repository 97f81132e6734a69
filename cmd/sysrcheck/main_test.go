package main

import (
	"testing"

	"systemr/internal/analysis"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(analysis.Suite) {
		t.Fatalf("empty -checks = %d analyzers, %v; want the whole suite", len(all), err)
	}

	// A name given twice runs once: a repeat would duplicate every finding
	// and timing row.
	got, err := selectAnalyzers("govtick, govtick,lockrank")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != analysis.GovTick || got[1] != analysis.LockRank {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Errorf("selectAnalyzers = %v, want [govtick lockrank]", names)
	}

	for _, retired := range []string{"govprop", "rsiclose", "snappin"} {
		if _, err := selectAnalyzers("govtick," + retired); err == nil {
			t.Errorf("the retired analyzer name %s was accepted", retired)
		}
	}
}
