package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"

	"systemr/internal/analysis"
)

func TestWriteSARIF(t *testing.T) {
	root := filepath.FromSlash("/mod")
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: filepath.FromSlash("/mod/internal/exec/run.go"), Line: 42, Column: 7},
			Analyzer: "lockrank",
			Message:  "lock.Manager acquisition while holding a buffer-pool mutex",
		},
		{
			Pos:      token.Position{Filename: filepath.FromSlash("/elsewhere/x.go"), Line: 1},
			Analyzer: "noprint",
			Message:  "library code writes to stdout",
		},
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, root, analysis.Suite, diags); err != nil {
		t.Fatal(err)
	}

	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sysrcheck" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer.
	if want := len(analysis.Suite); len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	r := run.Results[0]
	if r.RuleID != "lockrank" || r.Level != "error" {
		t.Errorf("result 0 = %+v", r)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/exec/run.go" {
		t.Errorf("in-module URI = %q, want module-relative", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %+v", loc.Region)
	}
	// A path outside the module keeps its absolute form.
	if got := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "/elsewhere/x.go" {
		t.Errorf("out-of-module URI = %q", got)
	}
}
