package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosTraceEventsDeterministicAcrossWorkers checks the trace contract:
// same campaign, different worker counts, byte-identical JSONL event
// streams — no wall clocks, monotonic sequence numbers.
func TestScenariosTraceEventsDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers string) string {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		args := []string{"-count", "60", "-maxring", "8", "-workers", workers, "-trace-events", trace}
		if err := runScenarios(context.Background(), args, io.Discard, io.Discard); err != nil {
			t.Fatalf("runScenarios(%v): %v", args, err)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	seq := render("1")
	if par := render("4"); seq != par {
		t.Fatalf("trace differs across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
	lines := strings.Split(strings.TrimSuffix(seq, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short: %q", seq)
	}
	for i, line := range lines {
		var ev struct {
			Seq   int64  `json:"seq"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not a JSON event: %v", i, err)
		}
		if ev.Seq != int64(i) {
			t.Fatalf("line %d has seq %d: sequence numbers must be monotonic from 0", i, ev.Seq)
		}
	}
	if !strings.Contains(lines[0], `"event":"campaign-start"`) {
		t.Errorf("first event is not campaign-start: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"event":"campaign-end"`) {
		t.Errorf("last event is not campaign-end: %s", lines[len(lines)-1])
	}
}

// TestTraceEventsCoverCheckpoints checks that checkpoint writes (rotating
// and final) appear in the event trace.
func TestTraceEventsCoverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	ckpt := filepath.Join(dir, "c.json")
	args := []string{"-count", "40", "-maxring", "8",
		"-checkpoint", ckpt, "-checkpoint-every", "10", "-trace-events", trace}
	if err := runScenarios(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatalf("runScenarios(%v): %v", args, err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, `"event":"checkpoint-written","fields":{"done":10,"kind":"rotating"}`) {
		t.Errorf("trace missing rotating checkpoint event:\n%s", got)
	}
	if !strings.Contains(got, `"kind":"final"`) {
		t.Errorf("trace missing final checkpoint event:\n%s", got)
	}
}

// TestBadObservabilityFlags pins the failure modes: an unusable telemetry
// address or trace path fails the run instead of being dropped silently.
func TestBadObservabilityFlags(t *testing.T) {
	if err := runScenarios(context.Background(), []string{"-count", "1", "-telemetry-addr", "256.0.0.1:bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("unusable -telemetry-addr must error")
	}
	bad := filepath.Join(t.TempDir(), "missing-dir", "trace.jsonl")
	if err := runScenarios(context.Background(), []string{"-count", "1", "-trace-events", bad}, io.Discard, io.Discard); err == nil {
		t.Error("unwritable -trace-events path must error")
	}
	if err := runScenarios(context.Background(), []string{"-progress", "-1"}, io.Discard, io.Discard); err == nil {
		t.Error("-progress -1 must error")
	}
}
