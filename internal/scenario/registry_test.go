package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/robot"
)

// testAlg is a minimal registrable algorithm.
type testAlg struct{ name string }

func (a testAlg) Name() string { return a.name }
func (a testAlg) NewCore() robot.Core {
	return robot.NewTable(a.name, func(bool, robot.View) (bool, bool) { return false, false }).NewCore()
}

func graphFamily() FamilyDescriptor {
	return FamilyDescriptor{
		Description: "test",
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dyngraph.NewStatic(s.Ring), nil
		},
	}
}

func TestRegistryRegistrationErrors(t *testing.T) {
	r := NewRegistry()
	// Collisions with built-ins and with fresh registrations.
	if err := r.RegisterAlgorithm("pef3+", AlgorithmDescriptor{New: func() robot.Algorithm { return testAlg{"pef3+"} }}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("builtin algorithm collision: err = %v", err)
	}
	if err := r.RegisterFamily("bernoulli", graphFamily()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("builtin family collision: err = %v", err)
	}
	if err := r.RegisterProperty(ExpectExplore, Property{Check: func(PropertyInput) PropertyResult { return PropertyResult{} }}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("builtin property collision: err = %v", err)
	}
	if err := r.RegisterFamily("mine", graphFamily()); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("mine", graphFamily()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("fresh family collision: err = %v", err)
	}

	// Nil constructors and predicates.
	if err := r.RegisterAlgorithm("nil-alg", AlgorithmDescriptor{}); err == nil || !strings.Contains(err.Error(), "nil constructor") {
		t.Errorf("nil algorithm constructor: err = %v", err)
	}
	if err := r.RegisterFamily("nil-fam", FamilyDescriptor{Description: "neither"}); err == nil || !strings.Contains(err.Error(), "neither Graph nor Build") {
		t.Errorf("nil family constructors: err = %v", err)
	}
	if err := r.RegisterProperty("nil-prop", Property{}); err == nil || !strings.Contains(err.Error(), "nil predicate") {
		t.Errorf("nil property predicate: err = %v", err)
	}

	// Reserved and empty names.
	if err := r.RegisterFamily("", graphFamily()); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty family name: err = %v", err)
	}
	if err := r.RegisterFamily("a/b", graphFamily()); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("slash in family name: err = %v", err)
	}
	if err := r.RegisterFamily("a b", graphFamily()); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("space in family name: err = %v", err)
	}
	if err := r.RegisterFamily("bad-param", FamilyDescriptor{
		Params: []ParamField{{Name: "warp", Kind: ParamInt}},
		Graph:  graphFamily().Graph,
	}); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown declared parameter: err = %v", err)
	}

	// Unknown-name lookups.
	if _, err := r.Algorithm("warp-drive"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm lookup: err = %v", err)
	}
	if _, err := r.familyOrErr("warp"); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Errorf("unknown family lookup: err = %v", err)
	}
	if _, ok := r.Property("warp"); ok {
		t.Error("unknown property lookup succeeded")
	}
}

// TestFamilyValidation checks the per-family parameter ranges the
// registry declares: each case is one out-of-range or missing parameter
// on an otherwise valid spec, and the error must name it.
func TestFamilyValidation(t *testing.T) {
	cases := []struct {
		family string
		p      Params
		want   string
	}{
		{"bernoulli", Params{P: 1.5}, "p=1.5 outside [0, 1]"},
		{"bounded", Params{P: 0.5, Delta: 0}, "needs parameter delta"},
		{"t-interval", Params{T: 0}, "needs parameter t"},
		{"roving", Params{Period: 0}, "needs parameter period"},
		{"chain", Params{Cut: -1, P: 0.5, Delta: 2}, "cut=-1 outside"},
		{"eventual-missing", Params{Edge: 0, From: -2, P: 0.5, Delta: 2}, "from=-2 outside"},
		{"markov", Params{Up: 0, Down: 0.5}, "needs parameter up"},
		{"no-such-family", Params{}, "unknown family"},
	}
	r := NewRegistry()
	for _, c := range cases {
		s := Spec{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom, Family: c.family, Params: c.p, Horizon: 100}
		if err := r.ValidateSpec(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: err = %v, want mention of %q", c.family, c.p, err, c.want)
		}
	}
}

// TestRegistryExpectationFailsLoudlyOnUnknownFamily pins the bugfix: an
// unregistered family used to fall through silently to report-only; it
// must now surface as an error everywhere an expectation is derived.
func TestRegistryExpectationFailsLoudlyOnUnknownFamily(t *testing.T) {
	r := NewRegistry()
	s := Spec{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom, Family: "wormhole", Horizon: 100}
	if _, err := r.Expectation(s); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("Expectation on unregistered family: err = %v", err)
	}
	v := Run(s)
	if v.Err == "" || !strings.Contains(v.Err, "unknown family") || v.OK {
		t.Fatalf("Run on unregistered family must error loudly, got %+v", v)
	}
	// With an explicit expectation the family name must still resolve.
	s.Expect = ExpectNone
	if v := Run(s); v.Err == "" || !strings.Contains(v.Err, "unknown family") {
		t.Fatalf("Run with explicit expect on unregistered family: %+v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("package-level Expectation did not panic on unregistered family")
		}
	}()
	Expectation(Spec{Ring: 8, Robots: 3, Family: "wormhole"})
}

// TestCustomRegistryEndToEnd drives a user-registered family, algorithm
// and property through an isolated registry without touching the process
// default.
func TestCustomRegistryEndToEnd(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterAlgorithm("drifter", AlgorithmDescriptor{
		Description: "keeps direction",
		New:         func() robot.Algorithm { return testAlg{"drifter"} },
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("always-on", FamilyDescriptor{
		Description: "static under a different name",
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dyngraph.NewStatic(s.Ring), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProperty("covered-some", Property{
		Description: "at least one node visited",
		Check: func(in PropertyInput) PropertyResult {
			return PropertyResult{OK: in.Distinct >= 1}
		},
	}); err != nil {
		t.Fatal(err)
	}
	s := Spec{
		Version: Version, Ring: 6, Robots: 1, Algorithm: "drifter",
		Placement: PlaceEven, Family: "always-on", Horizon: 64, Seed: 1,
		Expect: "covered-some",
	}
	v, err := RunWith(context.Background(), s, RunOptions{Registry: r})
	if err != nil || !v.OK {
		t.Fatalf("custom-registry run: err=%v verdict=%+v", err, v)
	}
	// The default registry must not know any of the new names.
	if _, err := DefaultRegistry().Algorithm("drifter"); err == nil {
		t.Error("custom algorithm leaked into the default registry")
	}
	if _, ok := DefaultRegistry().Family("always-on"); ok {
		t.Error("custom family leaked into the default registry")
	}
	// And campaigns thread the registry through config.
	c, err := RunCampaign(context.Background(), CampaignConfig{
		Registry:  r,
		Generator: "registered",
		Gen:       GenConfig{Families: "always-on"},
		Count:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cv := range c.Verdicts {
		if cv.Spec.Family != "always-on" {
			t.Fatalf("family filter ignored: sampled %s", cv.ID)
		}
		if !cv.OK || cv.Err != "" {
			t.Fatalf("always-on verdict %+v", cv)
		}
	}
}

// updatePreregistryGoldens regenerates testdata/preregistry_* when a PR
// deliberately changes report rendering (new columns, new scalar rows).
// The goldens then pin the new rendering for the registry-equivalence
// guarantee the test documents.
var updatePreregistryGoldens = flag.Bool("update-preregistry-goldens", false,
	"regenerate testdata/preregistry_* from the current rendering")

// TestPreRegistryByteIdentity pins the redesign's compatibility
// guarantee: campaign reports over every built-in family are
// byte-identical to the committed pre-registry outputs (generated from
// the last string-switch revision; regenerated when rendering changes
// on purpose — see -update-preregistry-goldens).
func TestPreRegistryByteIdentity(t *testing.T) {
	for _, gen := range []string{"uniform", "boundary", "markov", "adversarial"} {
		cfg := CampaignConfig{Generator: gen, Count: 100, Seeds: []uint64{1, 2}, Workers: 4}
		c, err := RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		var rep, js bytes.Buffer
		if err := c.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if *updatePreregistryGoldens {
			if err := os.WriteFile("testdata/preregistry_"+gen+".txt", rep.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile("testdata/preregistry_"+gen+".json", js.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		wantRep, err := os.ReadFile("testdata/preregistry_" + gen + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := os.ReadFile("testdata/preregistry_" + gen + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if rep.String() != string(wantRep) {
			t.Errorf("%s: report differs from pre-registry golden", gen)
		}
		if js.String() != string(wantJSON) {
			t.Errorf("%s: JSON differs from pre-registry golden", gen)
		}
	}
}

// TestCombinatorFamilyDeterminism pins the composed and periodic
// families: same spec, same verdict, across repeated runs and rebuilt
// dynamics.
func TestCombinatorFamilyDeterminism(t *testing.T) {
	specs := []Spec{
		{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceEven,
			Family: "periodic", Params: Params{Period: 4}, Horizon: 6400, Seed: 7},
		{Version: Version, Ring: 9, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom,
			Family: "compose:union", Params: Params{P: 0.5, Period: 3}, Horizon: 1800, Seed: 11},
		{Version: Version, Ring: 8, Robots: 4, Algorithm: "pef3+", Placement: PlaceAdjacent,
			Family: "compose:intersect", Params: Params{P: 0.8, T: 4}, Horizon: 1600, Seed: 13},
		{Version: Version, Ring: 10, Robots: 3, Algorithm: "pef3+", Placement: PlaceEven,
			Family: "compose:interleave", Params: Params{P: 0.6, Period: 2}, Horizon: 2000, Seed: 17},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Family, err)
		}
		a, b := Run(s), Run(s)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: verdicts differ across identical runs:\n%+v\n%+v", s.Family, a, b)
		}
		if !a.OK || a.Outcome != "explored" || a.Err != "" {
			t.Errorf("%s: in-threshold combinator spec did not explore: %+v", s.Family, a)
		}
	}
	// The registered generator's stream over the combinator pool is
	// deterministic and prefix-stable, like every other sampler.
	cfg := GenConfig{Families: "periodic,compose:union,compose:intersect,compose:interleave"}
	a, err := Generate("registered", cfg, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("registered", cfg, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("registered generator stream is not deterministic")
	}
	for _, s := range a {
		if s.Expect != ExpectExplore {
			t.Fatalf("combinator sample not explore-expected: %s", s.ID())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generated invalid combinator spec %s: %v", s.ID(), err)
		}
	}
}

// TestComposeFamiliesValidation covers the combinator construction
// errors.
func TestComposeFamiliesValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.ComposeFamilies(dynamicsComposeUnion(), "bernoulli"); err == nil || !strings.Contains(err.Error(), "at least two") {
		t.Errorf("single member accepted: %v", err)
	}
	if _, err := r.ComposeFamilies(dynamicsComposeUnion(), "bernoulli", "warp"); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Errorf("unknown member accepted: %v", err)
	}
	if _, err := r.ComposeFamilies(dynamicsComposeUnion(), "bernoulli", FamilyConfineOne); err == nil || !strings.Contains(err.Error(), "not an oblivious") {
		t.Errorf("adaptive member accepted: %v", err)
	}
	if _, err := r.ComposeFamilies("xor", "bernoulli", "roving"); err == nil {
		t.Error("unknown mode accepted")
	}
	d, err := r.ComposeFamilies(dynamicsComposeUnion(), "bernoulli", "roving")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Explorable {
		t.Error("union of explorable members is not explorable")
	}
	if err := r.RegisterFamily("compose:mine", d); err != nil {
		t.Fatal(err)
	}
	s := Spec{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceEven,
		Family: "compose:mine", Params: Params{P: 0.5, Period: 2}, Horizon: 1600, Seed: 3}
	v, err := RunWith(context.Background(), s, RunOptions{Registry: r})
	if err != nil || !v.OK {
		t.Fatalf("registered composition run: err=%v verdict=%+v", err, v)
	}
}

// dynamicsComposeUnion avoids importing internal/dynamics just for the
// mode constant in this test file.
func dynamicsComposeUnion() string { return "union" }

// TestShardedCampaignMergeByteIdentity pins the multi-process story:
// disjoint shards run separately, their checkpoints merged, reproduce
// the single-process reports byte for byte.
func TestShardedCampaignMergeByteIdentity(t *testing.T) {
	base := CampaignConfig{Generator: "boundary", Count: 50, Seeds: []uint64{1, 2}, Workers: 3}

	whole, err := NewAggregate(base)
	if err != nil {
		t.Fatal(err)
	}
	for v, serr := range StreamCampaign(context.Background(), base) {
		if serr != nil {
			t.Fatal(serr)
		}
		whole.Add(v)
	}
	var wantRep, wantJSON bytes.Buffer
	if err := whole.WriteReport(&wantRep); err != nil {
		t.Fatal(err)
	}
	if err := whole.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}

	const shards = 3
	ckpts := make([]*Checkpoint, shards)
	covered := 0
	for i := 0; i < shards; i++ {
		cfg := base
		cfg.ShardIndex, cfg.ShardCount = i, shards
		cfg.Workers = 1 + i // worker counts must not matter
		agg, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v, serr := range StreamCampaign(context.Background(), cfg) {
			if serr != nil {
				t.Fatal(serr)
			}
			agg.Add(v)
		}
		if agg.Done() != agg.End()-agg.Start() {
			t.Fatalf("shard %d incomplete: %d of [%d, %d)", i, agg.Done(), agg.Start(), agg.End())
		}
		covered += agg.Done()
		ckpts[i] = agg.Checkpoint()
	}
	if covered != base.Count*len(base.Seeds) {
		t.Fatalf("shards cover %d of %d scenarios", covered, base.Count*len(base.Seeds))
	}

	// Merge in scrambled order: MergeCheckpoints sorts by block.
	merged, err := MergeCheckpoints(ckpts[2], ckpts[0], ckpts[1])
	if err != nil {
		t.Fatal(err)
	}
	var rep, js bytes.Buffer
	if err := merged.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if rep.String() != wantRep.String() {
		t.Error("merged shard report differs from single-process run")
	}
	if js.String() != wantJSON.String() {
		t.Error("merged shard JSON differs from single-process run")
	}

	// Error cases: missing shard, double shard, incomplete shard.
	if _, err := MergeCheckpoints(ckpts[0], ckpts[2]); err == nil {
		t.Error("gap between shards accepted")
	}
	if _, err := MergeCheckpoints(ckpts[0], ckpts[1], ckpts[2], ckpts[2]); err == nil {
		t.Error("overlapping shards accepted")
	}
	if _, err := MergeCheckpoints(ckpts[1], ckpts[2]); err == nil {
		t.Error("merge without shard 0 accepted")
	}
	partial := *ckpts[1]
	partial.Done--
	partial.OK--
	if len(partial.Families) > 0 {
		partial.Families = append([]FamilyStats(nil), partial.Families...)
		partial.Families[0].Runs-- // keep runs == done so validate passes
		partial.Families[0].OK--
	}
	if _, err := MergeCheckpoints(ckpts[0], &partial, ckpts[2]); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete shard accepted: %v", err)
	}
}

// TestShardResumeRoundTrip halts a shard mid-block, resumes it from its
// checkpoint, and requires the shard's final aggregate to match the
// uninterrupted shard run.
func TestShardResumeRoundTrip(t *testing.T) {
	cfg := CampaignConfig{Generator: "uniform", Count: 30, Seeds: []uint64{9}, ShardIndex: 1, ShardCount: 2}

	full, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatal(serr)
		}
		full.Add(v)
	}

	halted, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatal(serr)
		}
		halted.Add(v)
		if ran++; ran == 7 {
			break
		}
	}
	ck := halted.Checkpoint()
	if ck.Start != full.Start() || ck.effEnd(cfg.Count) != full.End() {
		t.Fatalf("shard checkpoint block [%d, %d) differs from [%d, %d)", ck.Start, ck.End, full.Start(), full.End())
	}
	resumed, err := NewAggregate(CampaignConfig{Resume: ck})
	if err != nil {
		t.Fatal(err)
	}
	for v, serr := range StreamCampaign(context.Background(), CampaignConfig{Resume: ck}) {
		if serr != nil {
			t.Fatal(serr)
		}
		resumed.Add(v)
	}
	var a, b bytes.Buffer
	if err := full.WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("resumed shard report differs from uninterrupted shard run")
	}
	// Shard selection conflicts are rejected.
	if _, err := (CampaignConfig{Resume: ck, ShardIndex: 1, ShardCount: 2}).resolved(); err == nil {
		t.Error("resume with explicit shard selection accepted")
	}
	if _, err := (CampaignConfig{ShardIndex: 3, ShardCount: 2, Count: 10}).resolved(); err == nil {
		t.Error("shard index beyond count accepted")
	}
	if _, err := (CampaignConfig{ShardIndex: 1, Count: 10}).resolved(); err == nil {
		t.Error("shard index without count accepted")
	}
	if _, err := (CampaignConfig{ShardCount: 100, Count: 10}).resolved(); err == nil {
		t.Error("more shards than scenarios accepted")
	}
}

// TestRegisteredGeneratorFilterValidation rejects unknown and
// non-explorable family filters up front.
func TestRegisteredGeneratorFilterValidation(t *testing.T) {
	if _, err := Generate("registered", GenConfig{Families: "warp"}, 1, 1); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("unknown family filter: err = %v", err)
	}
	if _, err := Generate("registered", GenConfig{Families: FamilyConfineOne}, 1, 1); err == nil {
		t.Error("non-explorable family filter accepted")
	}
	if _, err := Generate("registered", GenConfig{Families: ", ,"}, 1, 1); err == nil {
		t.Error("empty family filter accepted")
	}
	specs, err := Generate("registered", GenConfig{Families: "periodic"}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Family != "periodic" {
			t.Fatalf("filter ignored: sampled %s", s.ID())
		}
	}
}

// TestStockStreamsFrozenUnderRegistration pins the replay guarantee: the
// historical samplers' spec streams must not move when algorithms,
// families or properties are registered afterwards — checkpoint resume
// and shard merging depend on exact sampler replay.
func TestStockStreamsFrozenUnderRegistration(t *testing.T) {
	r := NewRegistry()
	before := map[string][]Spec{}
	for _, gen := range []string{"uniform", "boundary", "markov", "adversarial"} {
		specs, err := r.Generate(gen, GenConfig{}, 17, 60)
		if err != nil {
			t.Fatal(err)
		}
		before[gen] = specs
	}
	if err := r.RegisterAlgorithm("zz-user-alg", AlgorithmDescriptor{
		New: func() robot.Algorithm { return testAlg{"zz-user-alg"} },
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("zz-user-fam", FamilyDescriptor{
		Explorable: true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dyngraph.NewStatic(s.Ring), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	for gen, want := range before {
		got, err := r.Generate(gen, GenConfig{}, 17, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: registration changed the stock spec stream", gen)
		}
	}
	// The registered generator, by contrast, picks up the new family.
	specs, err := r.Generate("registered", GenConfig{Families: "zz-user-fam"}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Family != "zz-user-fam" {
			t.Fatalf("registered generator missed the new family: %s", s.ID())
		}
	}
}

// TestDynamicsOverrideLabelOnlyFamily pins the WithDynamics contract: an
// injected dynamics with an unregistered family label derives its
// expectation from the algorithm-threshold rule instead of erroring.
func TestDynamicsOverrideLabelOnlyFamily(t *testing.T) {
	s := Spec{
		Version: Version, Ring: 6, Robots: 3, Algorithm: "pef3+",
		Placement: PlaceEven, Family: "external-label", Horizon: 1200, Seed: 1,
	}
	v, err := RunWith(context.Background(), s, RunOptions{
		Dynamics: fsync.Oblivious{G: dyngraph.NewStatic(6)},
	})
	if err != nil {
		t.Fatalf("label-only family errored: %v", err)
	}
	if v.Expect != ExpectExplore || !v.OK || v.Outcome != "explored" {
		t.Fatalf("label-only explore run: %+v", v)
	}
	// A non-paper algorithm under a label-only family is report-only.
	s.Algorithm = "oscillator"
	v, err = RunWith(context.Background(), s, RunOptions{
		Dynamics: fsync.Oblivious{G: dyngraph.NewStatic(6)},
	})
	if err != nil || v.Expect != ExpectNone || !v.OK {
		t.Fatalf("label-only report-only run: err=%v %+v", err, v)
	}
	// Without the override the same label still fails loudly.
	if v := Run(s); v.Err == "" || !strings.Contains(v.Err, "unknown family") {
		t.Fatalf("declarative unregistered family did not error: %+v", v)
	}
}

// TestMinimizeWithCustomRegistry pins that violations found under a
// custom registry shrink against that registry, preserving the real
// failure instead of degrading into an unknown-family config error.
func TestMinimizeWithCustomRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterFamily("zz-static", FamilyDescriptor{
		Explorable: true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dyngraph.NewStatic(s.Ring), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	broken := Spec{
		Version: Version, Ring: 10, Robots: 3, Algorithm: "oscillator",
		Placement: PlaceAdjacent, Family: "zz-static", Horizon: 2000, Seed: 7,
		Expect: ExpectExplore,
	}
	m := r.Minimize(broken)
	if m == broken {
		t.Fatal("custom-registry violation did not shrink")
	}
	mv := runIn(r, m)
	if mv.OK || mv.Err != "" || mv.Violation == "" {
		t.Fatalf("shrunk spec is not a clean predicate violation: %+v", mv)
	}
}
