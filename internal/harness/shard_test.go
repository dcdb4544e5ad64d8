package harness

import (
	"context"
	"strings"
	"testing"
)

// shardable lists the experiments that declare a ring-size decomposition.
func shardable(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, e := range All() {
		if e.Shards != nil {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		t.Fatal("no shardable experiments in the index")
	}
	return out
}

// TestShardsCoverFullExperiment verifies the defining shard property: for
// each shardable experiment, concatenating the per-ring-size shard tables
// (and verdicts) in index order reproduces the full experiment exactly.
func TestShardsCoverFullExperiment(t *testing.T) {
	cfg := Config{Seed: 3, Quick: true}
	for _, e := range shardable(t) {
		full, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		checkIdentity(t, full, e.ID, e)
		var tables []string
		pass := true
		for _, sh := range e.Shards(cfg.Quick) {
			if !strings.HasPrefix(sh.ID, e.ID+"#") {
				t.Fatalf("%s: shard ID %q does not extend the parent ID", e.ID, sh.ID)
			}
			res, err := sh.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sh.ID, err)
			}
			checkIdentity(t, res, sh.ID, e)
			tables = append(tables, tableRows(res))
			pass = pass && res.Pass
		}
		if got, want := strings.Join(tables, ""), tableRows(full); got != want {
			t.Errorf("%s: shard rows do not concatenate to the full table:\n--- shards ---\n%s--- full ---\n%s", e.ID, got, want)
		}
		if pass != full.Pass {
			t.Errorf("%s: shard verdict %t, full verdict %t", e.ID, pass, full.Pass)
		}
	}
}

// tableRows renders a result's table without the header and with cell
// alignment normalized (tabwriter pads columns differently for different
// row sets), so shard tables can be compared by concatenation.
func tableRows(res Result) string {
	lines := strings.Split(res.Table.String(), "\n")
	if len(lines) < 3 {
		return ""
	}
	var b strings.Builder
	for _, l := range lines[2:] {
		if strings.TrimSpace(l) == "" {
			continue
		}
		b.WriteString(strings.Join(strings.Fields(l), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestShardedBatchDeterministicAcrossWorkers runs the sharded quick index
// through the batch engine at two worker counts and demands byte-identical
// reports — the reorder-buffer guarantee must survive shard expansion.
func TestShardedBatchDeterministicAcrossWorkers(t *testing.T) {
	// E-T1.R1 → 2 quick ring shards; E-T1.R2 → 2 quick rings × the
	// 12-member victim suite.
	exps := Sharded(All()[:2], true)
	if len(exps) != 2+2*12 {
		t.Fatalf("expected 26 shards from the first two experiments, got %d", len(exps))
	}
	render := func(workers int) string {
		jobs, err := RunBatch(context.Background(), BatchConfig{
			Experiments: exps,
			Seeds:       Seeds(1, 3),
			Workers:     workers,
			Quick:       true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		if err := WriteBatchReport(&b, jobs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render(1) != render(8) {
		t.Fatal("sharded batch report differs across worker counts")
	}
}

// TestBatchShardFlag checks that BatchConfig.Shard expands the job matrix.
func TestBatchShardFlag(t *testing.T) {
	exps := All()[:1] // E-T1.R1, 2 quick shards
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Experiments: exps,
		Seeds:       []uint64{1},
		Quick:       true,
		Shard:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("sharded batch produced %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if !strings.HasPrefix(j.ID, "E-T1.R1#n=") {
			t.Fatalf("unexpected shard job ID %q", j.ID)
		}
		if !j.Passed() {
			t.Fatalf("shard %s failed: err=%v notes=%v", j.ID, j.Err, j.Result.Notes)
		}
	}
}

// TestVictimSuiteShardIDs pins the shape of the victim-suite
// decomposition: the impossibility sweeps split into one job per
// (ring size, victim algorithm) pair, each carrying both coordinates in
// its ID and title. A ring-only sweep's shards carry the ring alone.
func TestVictimSuiteShardIDs(t *testing.T) {
	for _, c := range []struct {
		id, first, label string
		shards           int
	}{
		{"E-T1.R2", "E-T1.R2#n=4/a=keep-direction", " [n=4, keep-direction]", 2 * len(victimSuite())},
		{"E-T1.R4", "E-T1.R4#n=3/a=keep-direction", " [n=3, keep-direction]", 2 * len(victimSuite())},
		{"E-T1.R1", "E-T1.R1#n=4", " [n=4]", 2},
	} {
		e, ok := Find(c.id, true)
		if !ok {
			t.Fatalf("experiment %s missing", c.id)
		}
		shards := e.Shards(true)
		if len(shards) != c.shards {
			t.Fatalf("%s: %d shards, want %d", c.id, len(shards), c.shards)
		}
		if shards[0].ID != c.first || shards[0].Title != e.Title+c.label || shards[0].Artifact != e.Artifact {
			t.Fatalf("%s: first shard (%q, %q, %q), want (%q, %q, %q)", c.id,
				shards[0].ID, shards[0].Title, shards[0].Artifact, c.first, e.Title+c.label, e.Artifact)
		}
		if c.shards == 2 {
			continue
		}
		// Each victim shard carries exactly one table row: one (ring,
		// victim) case.
		res, err := shards[0].Run(Config{Seed: 2, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.Rows() != 1 {
			t.Fatalf("%s: shard produced %d rows, want 1", c.id, res.Table.Rows())
		}
	}
}
