package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/durable"
	"pef/internal/scenario"
)

func collectWarnings() (func(format string, args ...any), *[]string) {
	var lines []string
	return func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, &lines
}

func TestSpillRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.spill")
	a := New(Config{})
	verdicts := map[string]scenario.Verdict{}
	for seed := uint64(20); seed < 25; seed++ {
		s := testSpec(seed)
		v := scenario.Run(s)
		key := mustKey(t, s)
		a.Put(key, v)
		verdicts[key] = v
	}
	n, err := a.WriteSpill(path)
	if err != nil {
		t.Fatalf("WriteSpill: %v", err)
	}
	if n != 5 {
		t.Fatalf("spilled %d verdicts, want 5", n)
	}

	b := New(Config{})
	warnf, warnings := collectWarnings()
	warmed, err := b.WarmFromSpill(path, warnf)
	if err != nil {
		t.Fatalf("WarmFromSpill: %v", err)
	}
	if warmed != 5 {
		t.Fatalf("warmed %d verdicts, want 5", warmed)
	}
	if len(*warnings) != 0 {
		t.Fatalf("clean warm produced warnings: %v", *warnings)
	}
	for key, want := range verdicts {
		got, ok := b.Get(key)
		if !ok {
			t.Fatalf("warmed cache missed %s", key)
		}
		if got != want {
			t.Fatalf("warmed verdict diverged for %s", key)
		}
	}
}

// TestSpillRecencyOrderSurvives: the spill stores LRU order, so an
// immediately-over-capacity warm keeps the most recently used entries.
func TestSpillRecencyOrderSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.spill")
	a := New(Config{})
	keys := make([]string, 4)
	for i, seed := range []uint64{20, 21, 22, 23} {
		s := testSpec(seed)
		keys[i] = mustKey(t, s)
		a.Put(keys[i], scenario.Run(s))
	}
	// Touch key 0 so the LRU order is 1, 2, 3, 0 (least → most recent).
	a.Get(keys[0])
	if _, err := a.WriteSpill(path); err != nil {
		t.Fatalf("WriteSpill: %v", err)
	}

	size := a.Bytes() / 4
	b := New(Config{Capacity: 2 * size})
	if _, err := b.WarmFromSpill(path, nil); err != nil {
		t.Fatalf("WarmFromSpill: %v", err)
	}
	if b.Len() != 2 {
		t.Fatalf("warmed cache holds %d entries, want 2", b.Len())
	}
	for _, i := range []int{3, 0} {
		if _, ok := b.Get(keys[i]); !ok {
			t.Fatalf("most-recent key %d did not survive the bounded warm", i)
		}
	}
}

func TestSpillCorruptionFallsBackLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.spill")
	a := New(Config{})
	s := testSpec(30)
	a.Put(mustKey(t, s), scenario.Run(s))
	if _, err := a.WriteSpill(path); err != nil {
		t.Fatalf("WriteSpill: %v", err)
	}

	// Flip verdict content without breaking the JSON: the checksum must
	// catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(data), `"ok": true`, `"ok": false`, 1)
	if corrupted == string(data) {
		corrupted = strings.Replace(string(data), `"outcome"`, `"outcomE"`, 1)
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	b := New(Config{})
	warnf, warnings := collectWarnings()
	warmed, err := b.WarmFromSpill(path, warnf)
	if err != nil {
		t.Fatalf("WarmFromSpill on corrupted spill errored hard: %v", err)
	}
	if warmed != 0 || b.Len() != 0 {
		t.Fatalf("corrupted spill warmed %d entries", warmed)
	}
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], "WARNING") || !strings.Contains((*warnings)[0], "checksum") {
		t.Fatalf("expected one loud checksum WARNING, got %v", *warnings)
	}
	// Recompute-on-fallback: the cache still works.
	key := mustKey(t, s)
	if _, status, err := b.GetOrRun(t.Context(), key, func() scenario.Verdict { return scenario.Run(s) }); err != nil || status != StatusMiss {
		t.Fatalf("recompute after fallback: status=%q err=%v", status, err)
	}
}

func TestSpillUnparseableFallsBackLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.spill")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	warnf, warnings := collectWarnings()
	if warmed, err := New(Config{}).WarmFromSpill(path, warnf); err != nil || warmed != 0 {
		t.Fatalf("warmed=%d err=%v", warmed, err)
	}
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], "WARNING") {
		t.Fatalf("expected a loud WARNING, got %v", *warnings)
	}
}

func TestSpillForeignFingerprintFallsBackLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.spill")
	doc := spillDoc{Version: spillVersion, Fingerprint: strings.Repeat("ab", 32)}
	data, err := durable.Encode(doc, spillChecksum)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	warnf, warnings := collectWarnings()
	if warmed, _ := New(Config{}).WarmFromSpill(path, warnf); warmed != 0 {
		t.Fatalf("foreign-fingerprint spill warmed %d entries", warmed)
	}
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], "registry surface") {
		t.Fatalf("expected a loud surface WARNING, got %v", *warnings)
	}
}

func TestSpillMissingFileIsQuietColdStart(t *testing.T) {
	warnf, warnings := collectWarnings()
	warmed, err := New(Config{}).WarmFromSpill(filepath.Join(t.TempDir(), "nope.spill"), warnf)
	if err != nil || warmed != 0 {
		t.Fatalf("warmed=%d err=%v", warmed, err)
	}
	if len(*warnings) != 0 {
		t.Fatalf("missing spill warned: %v", *warnings)
	}
}
