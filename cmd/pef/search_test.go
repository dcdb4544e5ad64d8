package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/search"
)

// searchBase is a small fixed-seed search.
var searchBase = []string{"-seed", "3", "-generations", "4", "-generation-size", "32", "-json"}

func searchUninterrupted(t *testing.T) string {
	t.Helper()
	var whole bytes.Buffer
	if err := runSearch(context.Background(), searchBase, &whole, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	return whole.String()
}

// searchHaltWithRotation halts the base search after generation 3 with a
// rotating checkpoint every generation: ckpt holds generation 3, ckpt.1
// generation 3 and ckpt.2 generation 2.
func searchHaltWithRotation(t *testing.T) string {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "s.json")
	args := append([]string{"-checkpoint", ckpt, "-checkpoint-every", "1", "-halt-after", "3"}, searchBase...)
	if err := runSearch(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	return ckpt
}

func TestSearchCheckpointRotation(t *testing.T) {
	whole := searchUninterrupted(t)
	ckpt := searchHaltWithRotation(t)
	for suffix, done := range map[string]int{"": 3, ".1": 3, ".2": 2} {
		data, err := os.ReadFile(ckpt + suffix)
		if err != nil {
			t.Fatalf("checkpoint%s missing: %v", suffix, err)
		}
		c, err := search.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if c.Done != done {
			t.Fatalf("checkpoint%s holds Done=%d, want %d", suffix, c.Done, done)
		}
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("checkpoint write left %s.tmp behind: %v", ckpt, err)
	}
	// The older rotation resumes too, and still reproduces the run.
	var resumed bytes.Buffer
	if err := runSearch(context.Background(), []string{"-resume", ckpt + ".2", "-json"}, &resumed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != whole {
		t.Fatal("resume from the older rotation differs from the uninterrupted run")
	}
	if err := runSearch(context.Background(), append([]string{"-checkpoint-every", "1"}, searchBase...), io.Discard, io.Discard); err == nil {
		t.Error("-checkpoint-every without -checkpoint accepted")
	}
}

// TestSearchResumeFallsBackToRotation truncates the preferred checkpoint and
// requires -resume to recover from the rotation with a loud warning, the
// recovered search to finish byte-identical to an uninterrupted run, and
// an all-corrupt set to fail loudly.
func TestSearchResumeFallsBackToRotation(t *testing.T) {
	whole := searchUninterrupted(t)
	ckpt := searchHaltWithRotation(t)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	var errOut strings.Builder
	if err := runSearch(context.Background(), []string{"-resume", ckpt, "-json"}, &resumed, &errOut); err != nil {
		t.Fatalf("resume from truncated checkpoint: %v", err)
	}
	if !strings.Contains(errOut.String(), "pef search: WARNING") || !strings.Contains(errOut.String(), ckpt+".1") {
		t.Fatalf("fallback was silent; stderr:\n%s", errOut.String())
	}
	if resumed.String() != whole {
		t.Fatal("resume via rotation fallback diverged from the uninterrupted run")
	}

	for _, p := range []string{ckpt, ckpt + ".1", ckpt + ".2"} {
		if err := os.WriteFile(p, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := runSearch(context.Background(), []string{"-resume", ckpt}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no rotation could be recovered") {
		t.Fatalf("all-corrupt resume: %v, want unrecoverable error", err)
	}
}
