package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosResumeFallsBackToRotation corrupts the preferred checkpoint and
// requires -resume to recover from the rotation sibling with a loud
// stderr warning — and the recovered campaign to finish byte-identical
// to an uninterrupted run.
func TestScenariosResumeFallsBackToRotation(t *testing.T) {
	base := []string{"-family", "boundary", "-count", "40", "-maxring", "8"}
	var whole bytes.Buffer
	if err := runScenarios(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "c.json")
	// Rotating checkpoints every 10 plus a halt at 30: c.json holds the
	// 30-scenario prefix and c.json.1 the most recent rotation.
	halted := append([]string{"-checkpoint", ckpt, "-checkpoint-every", "10", "-halt-after", "30"}, base...)
	if err := runScenarios(context.Background(), halted, io.Discard, io.Discard); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	if _, err := os.Stat(ckpt + ".1"); err != nil {
		t.Fatalf("rotation %s.1 missing: %v", ckpt, err)
	}

	// Truncate the preferred file mid-write, as a crash would.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	var errOut strings.Builder
	if err := runScenarios(context.Background(), []string{"-resume", ckpt}, &resumed, &errOut); err != nil {
		t.Fatalf("resume from corrupt checkpoint: %v", err)
	}
	if !strings.Contains(errOut.String(), "WARNING") || !strings.Contains(errOut.String(), ckpt+".1") {
		t.Fatalf("fallback was silent; stderr:\n%s", errOut.String())
	}
	if resumed.String() != whole.String() {
		t.Fatal("resume via rotation fallback diverged from the uninterrupted run")
	}

	// With every candidate corrupt the failure is loud and total.
	for _, p := range []string{ckpt, ckpt + ".1", ckpt + ".2"} {
		if _, err := os.Stat(p); err == nil {
			if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := runScenarios(context.Background(), []string{"-resume", ckpt}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no rotation could be recovered") {
		t.Fatalf("all-corrupt resume: %v, want unrecoverable error", err)
	}
}

// TestInterruptedCampaignCheckpointsCleanPrefix drives run with an
// already-cancelled context — the moral equivalent of a SIGINT landing
// mid-campaign — and requires a resumable checkpoint plus a non-nil
// "interrupted" error; resuming must reproduce the uninterrupted bytes.
func TestInterruptedCampaignCheckpointsCleanPrefix(t *testing.T) {
	base := []string{"-family", "uniform", "-count", "30", "-maxring", "8"}
	var whole bytes.Buffer
	if err := runScenarios(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ckpt := filepath.Join(t.TempDir(), "int.json")
	err := runScenarios(ctx, append([]string{"-checkpoint", ckpt}, base...), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "interrupted after") {
		t.Fatalf("interrupted run: %v, want interrupted error", err)
	}
	if !strings.Contains(err.Error(), "-resume "+ckpt) {
		t.Fatalf("interrupted error does not point at the checkpoint: %v", err)
	}
	var resumed bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-resume", ckpt}, &resumed, io.Discard); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if resumed.String() != whole.String() {
		t.Fatal("interrupt + resume diverged from the uninterrupted run")
	}

	// Without -checkpoint the interruption is still loud, and honest
	// about the progress being discarded.
	err = runScenarios(ctx, base, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "progress discarded") {
		t.Fatalf("interrupted run without checkpoint: %v, want progress-discarded error", err)
	}
}

// TestWorkerFlagValidation pins the worker-mode flag surface: campaign-
// shaping flags conflict with -worker-coord, and the worker-only flags
// require it.
func TestWorkerFlagValidation(t *testing.T) {
	conflicts := [][]string{
		{"-worker-coord", "http://127.0.0.1:1", "-count", "10"},
		{"-worker-coord", "http://127.0.0.1:1", "-family", "boundary"},
		{"-worker-coord", "http://127.0.0.1:1", "-resume", "x.json"},
		{"-worker-coord", "http://127.0.0.1:1", "-json"},
	}
	for _, args := range conflicts {
		if err := runScenarios(context.Background(), args, io.Discard, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "conflicts with -worker-coord") {
			t.Errorf("runScenarios(%v): %v, want conflict error", args, err)
		}
	}
	if err := runScenarios(context.Background(), []string{"-chaos-seed", "7"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "requires -worker-coord") {
		t.Errorf("-chaos-seed alone: %v, want requires error", err)
	}
	if err := runScenarios(context.Background(), []string{"-worker-id", "w"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "requires -worker-coord") {
		t.Errorf("-worker-id alone: %v, want requires error", err)
	}
	// A worker pointed at nothing exhausts its retries and reports it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runScenarios(ctx, []string{"-worker-coord", "http://127.0.0.1:1"}, io.Discard, io.Discard); err == nil {
		t.Error("worker with cancelled context returned nil")
	}
}
