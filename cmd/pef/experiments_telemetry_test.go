package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsTraceEventsDeterministicAcrossWorkers checks that the sweep's event
// trace — job retirement order included — is byte-identical for any
// worker count, and brackets the sweep with start/end events.
func TestExperimentsTraceEventsDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers string) string {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		args := []string{"-quick", "-seeds", "4", "-only", "E-T1.R5",
			"-workers", workers, "-trace-events", trace}
		if err := runExperiments(context.Background(), args, io.Discard, io.Discard); err != nil {
			t.Fatalf("runExperiments(%v): %v", args, err)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	seq := render("1")
	if par := render("8"); seq != par {
		t.Fatalf("trace differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	lines := strings.Split(strings.TrimSuffix(seq, "\n"), "\n")
	if !strings.Contains(lines[0], `"event":"sweep-start"`) {
		t.Errorf("first event is not sweep-start: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"event":"sweep-end"`) {
		t.Errorf("last event is not sweep-end: %s", lines[len(lines)-1])
	}
	retired := 0
	for _, line := range lines {
		if strings.Contains(line, `"event":"job-retired"`) {
			retired++
		}
	}
	if retired != 4 {
		t.Errorf("expected 4 job-retired events, got %d:\n%s", retired, seq)
	}
}
