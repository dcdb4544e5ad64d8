package search

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// testConfig is a small but representative run: enough generations past
// warmup for the bandit and the mutator to matter, small enough to keep
// the suite fast.
func testConfig() Config {
	return Config{Seed: 11, Generations: 5, GenerationSize: 32, Warmup: 2, CorpusSize: 16}
}

// runToBytes executes a search and renders its boundary report and trace
// to bytes.
func runToBytes(t *testing.T, cfg Config) (report, trace []byte) {
	t.Helper()
	var tr bytes.Buffer
	cfg.Trace = telemetry.NewTracer(&tr)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Err(); err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := res.WriteJSON(&rep); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), tr.Bytes()
}

// A fixed-seed search must produce byte-identical boundary reports and
// trace event streams for any worker count.
func TestSearchDeterminism(t *testing.T) {
	base := testConfig()
	base.Workers = 1
	wantReport, wantTrace := runToBytes(t, base)
	if !bytes.Contains(wantTrace, []byte(`"event":"search-end"`)) {
		t.Fatalf("trace lacks search-end:\n%s", wantTrace)
	}
	for _, workers := range []int{4, 7} {
		cfg := testConfig()
		cfg.Workers = workers
		report, trace := runToBytes(t, cfg)
		if !bytes.Equal(report, wantReport) {
			t.Errorf("boundary report diverges at workers=%d", workers)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("trace diverges at workers=%d", workers)
		}
	}
}

// A searched generation's specs — bandit draws and corpus mutations
// after warmup — must get the same verdict JSON from one scenario.RunBlock
// call, the engine route a generation takes, as from per-spec
// scenario.RunWith calls on the scalar oracle.
func TestSearchGenerationLaneScalarIdentity(t *testing.T) {
	ctx := context.Background()
	sr, err := newSearcher(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := sr.cfg.Warmup + 1
	for i := 0; i < g; i++ {
		if err := sr.runGeneration(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	plans, err := sr.plan(g)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]scenario.Spec, len(plans))
	mutated := 0
	for i, p := range plans {
		specs[i] = p.spec
		if p.arm < 0 {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatalf("generation %d planned no corpus mutations", g)
	}
	opts := scenario.RunOptions{Registry: sr.reg}
	scalar := make([]scenario.Verdict, len(specs))
	for i, s := range specs {
		v, err := scenario.RunWith(ctx, s, opts)
		if err != nil && v.Err == "" {
			v.Err, v.OK = err.Error(), false
		}
		scalar[i] = v
	}
	tel := scenario.NewTelemetry()
	lanes, err := json.Marshal(scenario.RunBlock(ctx, specs, scenario.RunOptions{Registry: sr.reg, Telemetry: tel}))
	if err != nil {
		t.Fatal(err)
	}
	if tel.Snapshot().Counters["engine.lockstepSpecs"] == 0 {
		t.Fatal("RunBlock ran no spec on lanes")
	}
	want, err := json.Marshal(scalar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lanes, want) {
		t.Fatalf("generation %d: RunBlock verdict JSON differs from per-spec RunWith", g)
	}
}

// A different seed must actually change the run — determinism that falls
// out of ignoring the seed would pass the byte-identity test vacuously.
func TestSearchSeedMatters(t *testing.T) {
	a, _ := runToBytes(t, testConfig())
	cfg := testConfig()
	cfg.Seed = 12
	b, _ := runToBytes(t, cfg)
	if bytes.Equal(a, b) {
		t.Fatal("seeds 11 and 12 produced identical boundary reports")
	}
}

// Halting after each possible generation and resuming from the
// checkpoint must reproduce the uninterrupted run's boundary report byte
// for byte — through an Encode/Decode cycle, exactly like the CLI.
func TestSearchCheckpointResume(t *testing.T) {
	want, _ := runToBytes(t, testConfig())
	for halt := 1; halt < testConfig().Generations; halt++ {
		var data []byte
		cfg := testConfig()
		cfg.OnGeneration = func(p Progress) error {
			if p.Generation >= halt {
				enc, err := p.Checkpoint().Encode()
				if err != nil {
					t.Fatal(err)
				}
				data = enc
				return ErrHalted
			}
			return nil
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted || res.Generations != halt {
			t.Fatalf("halt at %d: got halted=%v generations=%d", halt, res.Halted, res.Generations)
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("halt at %d: %v", halt, err)
		}
		resumed := Config{Resume: ck, Workers: 3}
		got, _ := runToBytes(t, resumed)
		if !bytes.Equal(got, want) {
			t.Errorf("resume after generation %d diverges from the uninterrupted run", halt)
		}
	}
}

// A corrupted checkpoint must fail loudly, and conflicting resume
// overrides must be rejected.
func TestSearchCheckpointIntegrity(t *testing.T) {
	var data []byte
	cfg := testConfig()
	cfg.OnGeneration = func(p Progress) error {
		enc, err := p.Checkpoint().Encode()
		if err != nil {
			t.Fatal(err)
		}
		data = enc
		return ErrHalted
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(data, []byte(`"seed": 11`), []byte(`"seed": 13`), 1)
	if bytes.Equal(flipped, data) {
		t.Fatal("corruption did not change the checkpoint bytes")
	}
	if _, err := DecodeCheckpoint(flipped); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted checkpoint decoded: %v", err)
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Resume: ck, Seed: 999}); err == nil {
		t.Fatal("conflicting resume seed accepted")
	}
	if _, err := Run(context.Background(), Config{Resume: ck, GenerationSize: 1}); err == nil {
		t.Fatal("conflicting resume generation size accepted")
	}
	// Extending a finished run is the one legal override.
	if _, err := Run(context.Background(), Config{Resume: ck, Generations: ck.Generations + 1}); err != nil {
		t.Fatalf("extending the run: %v", err)
	}
}

// The steering must concentrate the post-warmup budget: the share of
// post-warmup samples at or below the warmup bottom-quartile margin must
// be at least twice the uniform baseline (25%). This is the acceptance
// gate CI re-checks on the CLI's telemetry counters.
func TestSearchConcentration(t *testing.T) {
	tel := scenario.NewTelemetry()
	cfg := Config{Seed: 3, Generations: 8, GenerationSize: 64, Warmup: 2, Telemetry: tel}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PostWarmup == 0 {
		t.Fatal("no post-warmup samples carried margins")
	}
	if 2*res.Bottom < res.PostWarmup {
		t.Fatalf("concentration %d/%d = %.0f%% below the 50%% gate (2x the uniform 25%% baseline)",
			res.Bottom, res.PostWarmup, 100*float64(res.Bottom)/float64(res.PostWarmup))
	}
	snap := tel.Snapshot()
	if got := snap.Counters["search.postWarmup"]; got != int64(res.PostWarmup) {
		t.Errorf("search.postWarmup counter %d != result %d", got, res.PostWarmup)
	}
	if got := snap.Counters["search.bottomQuartile"]; got != int64(res.Bottom) {
		t.Errorf("search.bottomQuartile counter %d != result %d", got, res.Bottom)
	}
	if got := snap.Counters["search.samples"]; got != int64(res.Samples) {
		t.Errorf("search.samples counter %d != result %d", got, res.Samples)
	}
}

// Mutations must stay inside the generator bounds and the registry's
// validity envelope: every corpus spec and every boundary spec of a run
// with heavy mutation must validate.
func TestSearchMutantsStayValid(t *testing.T) {
	cfg := Config{Seed: 5, Generations: 6, GenerationSize: 32, Warmup: 1, MutationShare: 90,
		Gen: scenario.GenConfig{MaxRing: 8}}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutations == 0 {
		t.Fatal("mutation share 90 produced no mutations")
	}
	reg := scenario.DefaultRegistry()
	for _, e := range res.Corpus {
		if err := reg.ValidateSpec(e.Spec); err != nil {
			t.Errorf("corpus spec %s invalid: %v", e.Spec.ID(), err)
		}
		if e.Spec.Ring > 8 {
			t.Errorf("corpus spec %s escaped MaxRing 8", e.Spec.ID())
		}
	}
}

// FamilyWeights must shape the explore pool: an all-weight-on-one-family
// config may only ever sample that family.
func TestSearchFamilyWeights(t *testing.T) {
	cfg := Config{Seed: 2, Generations: 3, GenerationSize: 16, Warmup: 1,
		Gen: scenario.GenConfig{FamilyWeights: "bernoulli=5"}}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 1 || res.Arms[0].Family != "bernoulli" {
		t.Fatalf("weighted pool not respected: arms %+v", res.Arms)
	}
	for _, row := range res.Boundary {
		if row.Family != "bernoulli" {
			t.Errorf("boundary row for unexpected family %q", row.Family)
		}
	}
	bad := Config{Gen: scenario.GenConfig{FamilyWeights: "bernoulli=0"}}
	if _, err := Run(context.Background(), bad); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// The corpus must honor its bound, stay sorted by ascending margin, and
// hold no duplicate spec IDs.
func TestSearchCorpusInvariants(t *testing.T) {
	cfg := testConfig()
	cfg.CorpusSize = 5
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpus) > 5 {
		t.Fatalf("corpus of %d exceeds bound 5", len(res.Corpus))
	}
	seen := map[string]bool{}
	for i, e := range res.Corpus {
		id := e.Spec.ID()
		if seen[id] {
			t.Errorf("duplicate corpus spec %s", id)
		}
		seen[id] = true
		if i > 0 && e.Rel < res.Corpus[i-1].Rel {
			t.Errorf("corpus unsorted at %d: %d‰ after %d‰", i, e.Rel, res.Corpus[i-1].Rel)
		}
	}
}

// TestSearchLaneTelemetry pins the engine work of searches 1–4 at 6
// generations of 256 specs and 2 workers, the pefbench search workload.
// Lane groups mix rings, so a generation's lane specs fill about four
// full 64-lane groups: 96 groups take 232,600 word steps, where groups
// keyed by ring took 313 groups and 817,800 word steps. The lane rounds
// are the same in any grouping, since no lane's rounds depend on the
// lanes beside it.
func TestSearchLaneTelemetry(t *testing.T) {
	tel := scenario.NewTelemetry()
	for seed := uint64(1); seed <= 4; seed++ {
		if _, err := Run(context.Background(), Config{Seed: seed, Generations: 6, GenerationSize: 256, Workers: 2, Telemetry: tel}); err != nil {
			t.Fatal(err)
		}
	}
	c := tel.Snapshot().Counters
	for name, want := range map[string]int64{
		"engine.lockstepGroups":          96,
		"engine.lockstepSpecs":           6144,
		"sim.lockstep.rounds":            232600,
		"sim.lockstep.laneRounds":        11753894,
		"sim.lockstep.skippedLaneRounds": 1560306,
	} {
		if got := c[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
