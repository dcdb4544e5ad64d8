package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/scenario"
)

// TestRunByteIdenticalAcrossWorkers checks the CLI-level determinism
// guarantee for both output modes.
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	for _, mode := range []string{"report", "json"} {
		render := func(workers string) string {
			args := []string{"-family", "boundary", "-count", "40", "-seeds", "2", "-workers", workers}
			if mode == "json" {
				args = append(args, "-json")
			}
			var buf bytes.Buffer
			if err := runScenarios(context.Background(), args, &buf, io.Discard); err != nil {
				t.Fatalf("%s workers=%s: %v", mode, workers, err)
			}
			return buf.String()
		}
		if render("1") != render("8") {
			t.Fatalf("%s output differs between -workers 1 and -workers 8", mode)
		}
	}
}

func TestRunJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-family", "adversarial", "-count", "25", "-json"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version": 1`, `"generator": "adversarial"`, `"total": 25`, `"families"`, `"scalars"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-list"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"uniform", "boundary", "markov", "adversarial"} {
		if !strings.Contains(buf.String(), g) {
			t.Errorf("-list output missing generator %s", g)
		}
	}
}

// TestCheckpointHaltResumeRoundTrip is the CLI-level resume-determinism
// contract CI enforces: halt a campaign partway with a checkpoint, resume
// it, and the final report must be byte-identical to an uninterrupted run
// — in both output modes and across worker counts.
func TestCheckpointHaltResumeRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	base := []string{"-family", "boundary", "-count", "40", "-seeds", "2", "-maxring", "8"}

	var uninterrupted bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-workers", "2"}, base...), &uninterrupted, io.Discard); err != nil {
		t.Fatal(err)
	}

	var halted bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-checkpoint", ckpt, "-halt-after", "33", "-workers", "1"}, base...), &halted, io.Discard); err != nil {
		t.Fatalf("halted run failed: %v", err)
	}
	if !strings.Contains(halted.String(), "halted after 33 of 80 scenarios") {
		t.Fatalf("halt note missing:\n%s", halted.String())
	}

	var resumed bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-resume", ckpt, "-workers", "4"}, &resumed, io.Discard); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if resumed.String() != uninterrupted.String() {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\n--- want ---\n%s",
			resumed.String(), uninterrupted.String())
	}

	// A finished campaign's checkpoint covers everything; resuming it runs
	// zero scenarios and still reproduces the report.
	full := filepath.Join(t.TempDir(), "full.ckpt.json")
	var again bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-checkpoint", full}, base...), &again, io.Discard); err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-resume", full}, &replay, io.Discard); err != nil {
		t.Fatal(err)
	}
	if replay.String() != uninterrupted.String() {
		t.Fatal("replaying a complete checkpoint changed the report")
	}
}

// TestResumeRejectsConflictingFlags checks explicitly set flags are
// validated against the checkpoint instead of silently diverging.
func TestResumeRejectsConflictingFlags(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.json")
	if err := runScenarios(context.Background(), []string{"-family", "boundary", "-count", "10", "-maxring", "8", "-checkpoint", ckpt, "-halt-after", "5"}, &bytes.Buffer{}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), []string{"-resume", ckpt, "-family", "uniform"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("conflicting -family accepted on resume")
	}
	if err := runScenarios(context.Background(), []string{"-resume", ckpt, "-count", "99"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("conflicting -count accepted on resume")
	}
	if err := runScenarios(context.Background(), []string{"-resume", filepath.Join(t.TempDir(), "missing.json")}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("missing checkpoint file accepted")
	}
}

func TestHaltAndMinimizeFlagValidation(t *testing.T) {
	if err := runScenarios(context.Background(), []string{"-halt-after", "5"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("-halt-after without -checkpoint accepted")
	}
	if err := runScenarios(context.Background(), []string{"-minimize", "-json"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("-minimize with -json accepted")
	}
}

// TestListEnumeratesRegistry pins the -list contract CI leans on: every
// registered generator, family, algorithm and property appears in the
// listing, section by section.
func TestListEnumeratesRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-list"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{"generators:", "families:", "algorithms:", "properties:"} {
		if !strings.Contains(out, section) {
			t.Fatalf("-list output missing section %q:\n%s", section, out)
		}
	}
	r := scenario.DefaultRegistry()
	var want []string
	for _, g := range scenario.Generators() {
		want = append(want, g.Name)
	}
	want = append(want, r.FamilyNames()...)
	want = append(want, r.AlgorithmNames()...)
	want = append(want, r.PropertyNames()...)
	for _, name := range want {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing registry entry %q", name)
		}
	}
}

// TestShardMergeByteIdentity runs a campaign as three shard processes,
// merges their checkpoints with -merge, and requires both output modes to
// be byte-identical to the single-process run.
func TestShardMergeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-family", "boundary", "-count", "40", "-seeds", "2", "-maxring", "8"}

	var whole, wholeJSON bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-workers", "2"}, base...), &whole, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), append([]string{"-workers", "2", "-json"}, base...), &wholeJSON, io.Discard); err != nil {
		t.Fatal(err)
	}

	var paths []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		paths = append(paths, p)
		args := append([]string{
			"-shard-index", fmt.Sprint(i), "-shard-count", "3",
			"-checkpoint", p, "-workers", fmt.Sprint(i + 1),
		}, base...)
		if err := runScenarios(context.Background(), args, io.Discard, io.Discard); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}

	var merged bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-merge"}, paths...), &merged, io.Discard); err != nil {
		t.Fatal(err)
	}
	if merged.String() != whole.String() {
		t.Fatal("merged shard report differs from single-process run")
	}
	var mergedJSON bytes.Buffer
	if err := runScenarios(context.Background(), append([]string{"-merge", "-json"}, paths...), &mergedJSON, io.Discard); err != nil {
		t.Fatal(err)
	}
	if mergedJSON.String() != wholeJSON.String() {
		t.Fatal("merged shard JSON differs from single-process run")
	}

	// Merging with a missing shard fails loudly.
	if err := runScenarios(context.Background(), []string{"-merge", paths[0], paths[2]}, io.Discard, io.Discard); err == nil {
		t.Error("merge with a missing shard accepted")
	}
	// Sharding without a checkpoint is rejected (the block would be lost).
	if err := runScenarios(context.Background(), append([]string{"-shard-index", "0", "-shard-count", "2"}, base...), io.Discard, io.Discard); err == nil {
		t.Error("-shard-count without -checkpoint accepted")
	}
}

// TestScenariosCheckpointRotation checks -checkpoint-every: rotating .1/.2 files
// appear, stay decodable, trail the aggregate by the rotation cadence,
// and resuming from the freshest one reproduces the uninterrupted report.
func TestScenariosCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "rot.json")
	base := []string{"-family", "uniform", "-count", "35", "-maxring", "8"}

	var whole bytes.Buffer
	if err := runScenarios(context.Background(), base, &whole, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runScenarios(context.Background(), append([]string{"-checkpoint", ckpt, "-checkpoint-every", "10"}, base...), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	newest, err := os.ReadFile(ckpt + ".1")
	if err != nil {
		t.Fatalf("rotating checkpoint .1 missing: %v", err)
	}
	previous, err := os.ReadFile(ckpt + ".2")
	if err != nil {
		t.Fatalf("rotating checkpoint .2 missing: %v", err)
	}
	ck1, err := scenario.DecodeCheckpoint(newest)
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := scenario.DecodeCheckpoint(previous)
	if err != nil {
		t.Fatal(err)
	}
	if ck1.Done != 30 || ck2.Done != 20 {
		t.Fatalf("rotation kept Done=%d/%d, want 30/20", ck1.Done, ck2.Done)
	}
	var resumed bytes.Buffer
	if err := runScenarios(context.Background(), []string{"-resume", ckpt + ".1"}, &resumed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != whole.String() {
		t.Fatal("resume from rotating checkpoint differs from uninterrupted run")
	}
	if err := runScenarios(context.Background(), append([]string{"-checkpoint-every", "5"}, base...), io.Discard, io.Discard); err == nil {
		t.Error("-checkpoint-every without -checkpoint accepted")
	}
}
