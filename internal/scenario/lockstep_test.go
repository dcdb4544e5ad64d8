package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"pef/internal/fsync"
	"pef/internal/harness"
	"pef/internal/robot"
	"pef/internal/telemetry"
)

var updateLockstepGoldens = flag.Bool("update-lockstep-goldens", false,
	"regenerate testdata/lockstep_registered.* from the scalar path")

// TestRunBlockMatchesRunWith is the engine-equivalence suite: for every
// stock generator plus the registered generator over all explorable
// families, block verdicts must equal per-spec scalar verdicts field for
// field, at every block width (1 disables lane sharing entirely, 7 forces
// partial words and mixed retirement, 64 is the full word). The scalar
// reference runs every round to the horizon (fullHorizon), so neither
// engine's lasso retirement is checked against itself.
func TestRunBlockMatchesRunWith(t *testing.T) {
	ctx := context.Background()
	for _, gen := range []string{"uniform", "boundary", "markov", "adversarial", "registered"} {
		specs, err := Generate(gen, GenConfig{}, 5, 48)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		want := scalarVerdicts(ctx, specs, fullHorizon)
		for _, width := range []int{1, 7, 64} {
			for start := 0; start < len(specs); start += width {
				end := min(start+width, len(specs))
				got := RunBlock(ctx, specs[start:end], RunOptions{})
				for j := range got {
					if !reflect.DeepEqual(got[j], want[start+j]) {
						t.Fatalf("%s width %d spec %d (%s):\nlockstep %+v\nscalar   %+v",
							gen, width, start+j, specs[start+j].ID(), got[j], want[start+j])
					}
				}
			}
		}
	}
}

// scalarVerdicts runs every spec on the scalar oracle, the reference the
// lane engine must reproduce byte for byte; with fullHorizon's no-op
// observer every run sees every round.
func scalarVerdicts(ctx context.Context, specs []Spec, o RunOptions) []Verdict {
	vs := make([]Verdict, len(specs))
	for i, s := range specs {
		vs[i] = runScalar(ctx, s, o)
	}
	return vs
}

// TestCampaignLockstepScalarByteIdentity pins the campaign-level
// guarantee: reports and JSON documents of the lane route (the campaign
// itself, in its fixed 1024-spec blocks) are byte-identical to a
// scalar-oracle reference, for any worker count. The reference folds
// Generate's specs, run one by one through runScalar with every round
// executed (fullHorizon), into an Aggregate.
// The registered generator, over the full explorable-family pool, also
// matches the committed golden. Uniform and adversarial run 400 specs per
// seed: the uniform campaign must form full 64-lane groups, and every
// block-pointed spec of the adversarial one and every confinement spec
// whose victim is a rule table must ride lanes. Narrower blocks are
// TestRunBlockMatchesRunWith's.
func TestCampaignLockstepScalarByteIdentity(t *testing.T) {
	ctx := context.Background()
	render := func(agg *Aggregate) (string, string) {
		var rep, js bytes.Buffer
		if err := agg.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return rep.String(), js.String()
	}
	for _, leg := range []struct {
		gen   string
		count int
	}{{"registered", 40}, {"uniform", 400}, {"adversarial", 400}} {
		gen := leg.gen
		base := CampaignConfig{Generator: gen, Count: leg.count, Seeds: []uint64{3, 4}}
		var specs []Spec
		for _, seed := range base.Seeds {
			batch, err := Generate(gen, GenConfig{}, seed, base.Count)
			if err != nil {
				t.Fatalf("%s: %v", gen, err)
			}
			specs = append(specs, batch...)
		}
		ref, err := NewAggregate(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range scalarVerdicts(ctx, specs, fullHorizon) {
			ref.Add(v)
		}
		wantRep, wantJSON := render(ref)

		if gen == "registered" {
			if *updateLockstepGoldens {
				if err := os.WriteFile("testdata/lockstep_registered.txt", []byte(wantRep), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile("testdata/lockstep_registered.json", []byte(wantJSON), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			goldRep, err := os.ReadFile("testdata/lockstep_registered.txt")
			if err != nil {
				t.Fatal(err)
			}
			goldJSON, err := os.ReadFile("testdata/lockstep_registered.json")
			if err != nil {
				t.Fatal(err)
			}
			if wantRep != string(goldRep) {
				t.Error("scalar report differs from committed golden")
			}
			if wantJSON != string(goldJSON) {
				t.Error("scalar JSON differs from committed golden")
			}
		}

		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			cfg.Telemetry = NewTelemetry()
			c, err := RunCampaign(ctx, cfg)
			if err != nil {
				t.Fatalf("%s campaign workers=%d: %v", gen, workers, err)
			}
			rep, js := render(c.aggregate())
			if rep != wantRep {
				t.Errorf("%s workers=%d: campaign report differs from scalar", gen, workers)
			}
			if js != wantJSON {
				t.Errorf("%s workers=%d: campaign JSON differs from scalar", gen, workers)
			}
			snap := cfg.Telemetry.Snapshot()
			lock := snap.Counters["engine.lockstepSpecs"]
			if lock == 0 {
				t.Errorf("%s workers=%d: engine.lockstepSpecs = 0, the campaign never took the lane route", gen, workers)
			}
			switch gen {
			case "uniform":
				if occ := snap.Hists["engine.laneOccupancy"]; occ.Max != laneWordSize {
					t.Errorf("uniform workers=%d: largest lane group has %d lanes, want a full %d", workers, occ.Max, laneWordSize)
				}
			case "adversarial":
				var pointed, confine int64
				for _, s := range specs {
					switch {
					case s.Family == FamilyBlockPointed:
						pointed++
					case tableVictim(t, s):
						confine++
					}
				}
				if pointed == 0 || confine == 0 || lock != pointed+confine {
					t.Errorf("adversarial workers=%d: engine.lockstepSpecs = %d, want all %d block-pointed and %d table-victim confinement specs on lanes",
						workers, lock, pointed, confine)
				}
			}
		}
	}
}

// TestRunBlockObserversForceScalar checks the conservative eligibility
// gate: any imperative override routes through the scalar oracle (whose
// observers see real snapshots), never the lane engine.
func TestRunBlockObserversForceScalar(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{}, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	obs := countRounds{&rounds}
	tel := NewTelemetry()
	got := RunBlock(context.Background(), specs, RunOptions{Observers: []fsync.Observer{obs}, Telemetry: tel})
	for i, s := range specs {
		want := runScalar(context.Background(), s, RunOptions{Observers: []fsync.Observer{obs}})
		// The observer counter differs between the two passes; compare the
		// stable fields.
		want.Err = got[i].Err
		if got[i].ID != s.ID() || got[i].OK != want.OK || got[i].Outcome != want.Outcome {
			t.Fatalf("spec %d: override verdict %+v, want %+v", i, got[i], want)
		}
	}
	if rounds == 0 {
		t.Fatal("observers were dropped: the block must have run scalar with observers attached")
	}
	// The telemetry bundle saw the routing decision: every spec left the
	// lockstep path, attributed to the observer override.
	snap := tel.Snapshot()
	if got := snap.Counters["engine.lockstepSpecs"]; got != 0 {
		t.Fatalf("engine.lockstepSpecs = %d with observers attached, want 0", got)
	}
	if got := snap.Counters["engine.skip.overrides"]; got != int64(len(specs)) {
		t.Fatalf("engine.skip.overrides = %d, want %d", got, len(specs))
	}
	if got := snap.Counters["engine.scalarSpecs"]; got != int64(len(specs)) {
		t.Fatalf("engine.scalarSpecs = %d, want %d", got, len(specs))
	}
}

// TestRunBlockTelemetryStaysLockstep is the differential counterpart of
// TestRunBlockObserversForceScalar: attaching Telemetry — unlike
// attaching observers — must NOT force a block off the lockstep path,
// and must not change a single verdict field.
func TestRunBlockTelemetryStaysLockstep(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{}, 21, 64)
	if err != nil {
		t.Fatal(err)
	}
	plain := RunBlock(context.Background(), specs, RunOptions{})
	tel := NewTelemetry()
	got := RunBlock(context.Background(), specs, RunOptions{Telemetry: tel})
	for i := range specs {
		if got[i] != plain[i] {
			t.Fatalf("spec %d: telemetry changed the verdict:\n got %+v\nwant %+v", i, got[i], plain[i])
		}
	}
	snap := tel.Snapshot()
	if got := snap.Counters["engine.lockstepSpecs"]; got == 0 {
		t.Fatalf("engine.lockstepSpecs = 0: telemetry forced the block off the lockstep path (counters: %v)", snap.Counters)
	}
	if got := snap.Counters["engine.skip.overrides"]; got != 0 {
		t.Fatalf("engine.skip.overrides = %d with no overrides attached, want 0", got)
	}
	if lock, scal := snap.Counters["engine.lockstepSpecs"], snap.Counters["engine.scalarSpecs"]; lock+scal != int64(len(specs)) {
		t.Fatalf("lockstep(%d)+scalar(%d) specs != %d routed", lock, scal, len(specs))
	}
	if snap.Counters["sim.lockstep.rounds"] == 0 {
		t.Fatal("lane engine ran but recorded no lockstep rounds")
	}
}

// TestBaselineTablesRunLockstep checks that the memoryless baselines,
// being rule tables, now take the lane engine on oblivious dynamics, with
// verdict JSON byte-identical to the scalar oracle's.
func TestBaselineTablesRunLockstep(t *testing.T) {
	var specs []Spec
	for _, alg := range []string{"keep-direction", "bounce-on-missing", "tower-bounce", "oscillator"} {
		for _, fam := range []struct {
			name   string
			params Params
		}{{"static", Params{}}, {"bernoulli", Params{P: 0.6}}, {"markov", Params{Up: 0.5, Down: 0.3}}} {
			for _, n := range []int{5, 12, 64} {
				for k := 2; k <= 3; k++ {
					for seed := uint64(1); seed <= 2; seed++ {
						specs = append(specs, Spec{Ring: n, Robots: k, Algorithm: alg, Placement: PlaceRandom,
							Family: fam.name, Params: fam.params, Horizon: 150, Seed: seed})
					}
				}
			}
		}
	}
	ctx := context.Background()
	tel := NewTelemetry()
	verdicts := RunBlock(ctx, specs, RunOptions{Telemetry: tel})
	for i, v := range verdicts {
		if v.Err != "" {
			t.Fatalf("spec %d (%s): %s", i, specs[i].ID(), v.Err)
		}
	}
	got := verdictJSON(t, verdicts)
	if want := verdictJSON(t, scalarVerdicts(ctx, specs, RunOptions{})); got != want {
		t.Fatal("lockstep verdict JSON differs from the scalar oracle's")
	}
	snap := tel.Snapshot()
	if lock := snap.Counters["engine.lockstepSpecs"]; lock != int64(len(specs)) {
		t.Fatalf("engine.lockstepSpecs = %d, want all %d specs (counters: %v)", lock, len(specs), snap.Counters)
	}
	if skip, ok := snap.Counters["engine.skip.algorithm"]; ok {
		t.Fatalf("engine.skip.algorithm = %d, want no such counter", skip)
	}
}

// TestRunBlockPacksTeamSizesIntoOneLockstepGroup checks that RunBlock
// keys lane groups by nothing: 48 specs mixing three team sizes on two
// rings under two tables form one lane group, whose verdict JSON is
// byte-identical to per-spec RunWith.
func TestRunBlockPacksTeamSizesIntoOneLockstepGroup(t *testing.T) {
	var specs []Spec
	for seed := uint64(1); seed <= 2; seed++ {
		for _, fam := range []struct {
			name   string
			params Params
		}{{"bernoulli", Params{P: 0.6}}, {"markov", Params{Up: 0.5, Down: 0.3}}} {
			for k := 3; k <= 5; k++ {
				for _, n := range []int{7, 10} {
					for _, alg := range []string{"pef3+", "tower-bounce"} {
						specs = append(specs, Spec{Ring: n, Robots: k, Algorithm: alg, Placement: PlaceRandom,
							Family: fam.name, Params: fam.params, Horizon: 40 * n, Seed: seed})
					}
				}
			}
		}
	}
	ctx := context.Background()
	tel := NewTelemetry()
	got := RunBlock(ctx, specs, RunOptions{Telemetry: tel})
	want := make([]Verdict, len(specs))
	for i, s := range specs {
		want[i] = runScalar(ctx, s, RunOptions{})
		if want[i].Err != "" {
			t.Fatalf("spec %d (%s): %s", i, s.ID(), want[i].Err)
		}
	}
	if verdictJSON(t, got) != verdictJSON(t, want) {
		t.Fatal("mixed-team lockstep verdict JSON differs from per-spec RunWith")
	}
	snap := tel.Snapshot()
	const groups = 1 // rings 7 and 10 under tables pef3+ and tower-bounce
	if g := snap.Counters["engine.lockstepGroups"]; g != groups {
		t.Fatalf("engine.lockstepGroups = %d, want %d", g, groups)
	}
	occ := snap.Hists["engine.laneOccupancy"]
	if occ.Count != groups || occ.Min != len(specs)/groups || occ.Max != len(specs)/groups {
		t.Fatalf("engine.laneOccupancy = %+v, want %d groups of %d lanes", occ, groups, len(specs)/groups)
	}
	if lock := snap.Counters["engine.lockstepSpecs"]; lock != int64(len(specs)) {
		t.Fatalf("engine.lockstepSpecs = %d, want all %d specs", lock, len(specs))
	}
	// A group the engine rejected would fall back to scalar runs with the
	// same verdicts; the lane rounds show every lane really ran on lanes.
	var horizons int64
	for _, s := range specs {
		horizons += int64(s.Horizon)
	}
	if lr := snap.Counters["sim.lockstep.laneRounds"]; lr != horizons {
		t.Fatalf("sim.lockstep.laneRounds = %d, want the %d rounds of all lanes", lr, horizons)
	}
}

// tableVictim reports whether s's algorithm is a rule table, the form the
// lane engine runs.
func tableVictim(t *testing.T, s Spec) bool {
	t.Helper()
	alg, err := DefaultRegistry().Algorithm(s.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := alg.(robot.Table)
	return ok
}

// TestRunBlockRunsBlockPointedOnLanes checks that the adaptive adversaries
// run on the lane engine: on an adversarial block only the confinement
// specs whose victim is not a rule table (the counter-core baselines)
// leave the lockstep path, every adversary lane-round counts as
// word-fast, the lane-rounds run plus those cut by lasso retirement add
// up to the lane specs' horizons, and the verdict JSON is byte-identical
// to per-spec RunWith run every round.
func TestRunBlockRunsBlockPointedOnLanes(t *testing.T) {
	specs, err := Generate("adversarial", GenConfig{}, 3, 192)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := make([]Verdict, len(specs))
	var lanes, pointed, confine, counters, rounds int64
	for i, s := range specs {
		want[i] = runScalar(ctx, s, fullHorizon)
		switch {
		case s.Family == FamilyBlockPointed:
			pointed++
		case tableVictim(t, s):
			confine++
		default:
			counters++
			continue
		}
		lanes++
		rounds += int64(s.Horizon)
	}
	if pointed == 0 || confine == 0 || counters == 0 {
		t.Fatalf("block has %d block-pointed, %d table-victim and %d counter-victim confinement specs, want all three", pointed, confine, counters)
	}
	tel := NewTelemetry()
	got := RunBlock(ctx, specs, RunOptions{Telemetry: tel})
	if verdictJSON(t, got) != verdictJSON(t, want) {
		t.Fatal("adversarial lockstep verdict JSON differs from per-spec RunWith")
	}
	c := tel.Snapshot().Counters
	for _, tc := range []struct {
		name      string
		got, want int64
	}{
		{"engine.lockstepSpecs", c["engine.lockstepSpecs"], lanes},
		{"engine.scalarSpecs", c["engine.scalarSpecs"], counters},
		{"engine.skip.dynamics", c["engine.skip.dynamics"], 0},
		{"engine.skip.algorithm", c["engine.skip.algorithm"], counters},
		{"engine.skip.fallback", c["engine.skip.fallback"], 0},
		{"sim.lockstep.laneRounds + skippedLaneRounds", c["sim.lockstep.laneRounds"] + c["sim.lockstep.skippedLaneRounds"], rounds},
		{"sim.wordFastLanes", c["sim.wordFastLanes"], c["sim.lockstep.laneRounds"]},
		{"sim.wordFallbackLanes", c["sim.wordFallbackLanes"], 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d (counters: %v)", tc.name, tc.got, tc.want, c)
		}
	}
	if c["engine.lassoLanes"] == 0 || c["sim.lockstep.skippedLaneRounds"] == 0 {
		t.Errorf("no lane retired at its lasso (counters: %v)", c)
	}
}

// TestRunBlockLassoBlockNotCancelled runs a block of confinement specs
// whose victims are rule tables: every lane lassos within a few rounds, so
// the lane group ends long before the shortest horizon, yet no verdict
// reads cancelled and all equal per-spec RunWith run every round.
func TestRunBlockLassoBlockNotCancelled(t *testing.T) {
	all, err := Generate("adversarial", GenConfig{}, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	shortest := 1 << 30
	for _, s := range all {
		if s.Family != FamilyBlockPointed && tableVictim(t, s) {
			specs = append(specs, s)
			shortest = min(shortest, s.Horizon)
		}
	}
	ctx := context.Background()
	tel := NewTelemetry()
	got := RunBlock(ctx, specs, RunOptions{Telemetry: tel})
	for i, s := range specs {
		if got[i].Outcome == "cancelled" {
			t.Fatalf("%s: lasso lane reported cancelled: %+v", s.ID(), got[i])
		}
		if want := runScalar(ctx, s, fullHorizon); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s:\nlockstep %+v\nscalar   %+v", s.ID(), got[i], want)
		}
	}
	c := tel.Snapshot().Counters
	if n := int64(len(specs)); n < 64 || c["engine.lockstepSpecs"] != n || c["engine.lassoLanes"] != n {
		t.Fatalf("%d confinement specs: %d on lanes, %d lassoed", n, c["engine.lockstepSpecs"], c["engine.lassoLanes"])
	}
	if groups, rounds := c["engine.lockstepGroups"], c["sim.lockstep.rounds"]; rounds >= groups*int64(shortest) {
		t.Fatalf("%d lane groups ran %d rounds, want fewer than %d each (the shortest horizon)", groups, rounds, shortest)
	}
}

// TestAdversarialCampaignLassoTelemetry pins the engine work of the 4 ×
// 500 adversarial campaign at 2 workers. Lasso retirement cuts the lane
// rounds and the scalar rounds alike: every one of the 209 pendulum-3 and
// doubling-zigzag confinement specs retires at its lasso on the scalar
// oracle, and the 119 lcg-walker-7 specs run their 71,616 rounds. The
// counts are deterministic; on each engine the rounds run plus the rounds
// skipped is the horizon total of its specs. A lane's lasso does not
// depend on the lanes that share its block (Brent's saves fall at t = 1,
// 2, 4, … in any block), so the lane rounds stay what they were when each
// ring had its own groups; the 27 full groups of mixed rings take 9,337
// word steps where 40 groups keyed by ring took 17,170.
func TestAdversarialCampaignLassoTelemetry(t *testing.T) {
	cfg := CampaignConfig{Generator: "adversarial", Count: 500, Seeds: []uint64{1, 2, 3, 4}, Workers: 2, Telemetry: NewTelemetry()}
	if _, err := RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	c := cfg.Telemetry.Snapshot().Counters
	for name, want := range map[string]int64{
		"engine.lockstepSpecs":           1672,
		"engine.lassoLanes":              1672,
		"sim.lockstep.skippedLaneRounds": 1827167,
		"sim.lockstep.laneRounds":        140009,
		"sim.lockstep.rounds":            9337,
		"engine.lockstepGroups":          27,
		"engine.scalarSpecs":             328,
		"engine.lassoRuns":               209,
		"sim.rounds":                     72402,
		"sim.skippedRounds":              130158,
	} {
		if got := c[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := c["sim.rounds"] + c["sim.skippedRounds"]; got != 202560 {
		t.Errorf("scalar rounds run plus skipped = %d, want the 202560 rounds of the scalar specs' horizons", got)
	}
}

// TestBusyTimeFloorsTotal books three 0.999 ms lane groups: the
// nanosecond counter holds their sum and the millisecond one its floor,
// 2, where per-group truncation would read 0.
func TestBusyTimeFloorsTotal(t *testing.T) {
	reg := telemetry.NewRegistry()
	ns, ms := reg.Counter("ns"), reg.Counter("ms")
	b := busyTime{ns, ms}
	for range 3 {
		b.add(999 * time.Microsecond)
	}
	if ns.Value() != 2_997_000 || ms.Value() != 2 {
		t.Fatalf("three 0.999 ms groups booked %d ns and %d ms, want 2997000 and 2", ns.Value(), ms.Value())
	}
	b.add(3 * time.Microsecond)
	if ms.Value() != 3 {
		t.Fatalf("reaching 3.000 ms booked %d ms, want 3", ms.Value())
	}
}

// TestRunLockstepGroupFallbackCountsScalar drives runLockstepGroup with a
// group holding a 65-node ring, past the 64-bit lane word, which the
// engine's Reset rejects: every verdict must come from the scalar
// fallback, and the telemetry must count the group as scalar specs under
// engine.skip.fallback, never as lane work.
func TestRunLockstepGroupFallbackCountsScalar(t *testing.T) {
	specs := []Spec{
		{Ring: 7, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom, Family: "bernoulli", Params: Params{P: 0.6}, Horizon: 90, Seed: 1},
		{Ring: 65, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom, Family: "bernoulli", Params: Params{P: 0.6}, Horizon: 90, Seed: 2},
		{Ring: 7, Robots: 4, Algorithm: "pef3+", Placement: PlaceEven, Family: FamilyBlockPointed, Params: Params{Budget: 3}, Horizon: 90, Seed: 3},
	}
	ctx := context.Background()
	tel := NewTelemetry()
	o := RunOptions{Telemetry: tel}
	plans := make([]lanePlan, len(specs))
	got := make([]Verdict, len(specs))
	for i, s := range specs {
		v, res, err := prepareRun(s, o)
		if err != nil {
			t.Fatal(err)
		}
		// lockstepEligible keeps the 65-node ring off lanes; build its
		// dynamics directly so that the group reaches the engine.
		dyn, err := res.fam.build(s)
		if err != nil {
			t.Fatal(err)
		}
		plans[i], got[i] = newLanePlan(dyn, res), v
	}
	runLockstepGroup(ctx, specs, plans, []int{0, 1, 2}, o, harness.NewLaneBlock(), got)
	want := make([]Verdict, len(specs))
	for i, s := range specs {
		want[i] = runScalar(ctx, s, fullHorizon)
	}
	if verdictJSON(t, got) != verdictJSON(t, want) {
		t.Fatal("fallen-back group verdicts differ from per-spec RunWith")
	}
	snap := tel.Snapshot()
	for name, want := range map[string]int64{
		"engine.lockstepGroups":   0,
		"engine.lockstepSpecs":    0,
		"engine.scalarSpecs":      3,
		"engine.skip.fallback":    3,
		"oracle.scalarRuns":       3,
		"sim.lockstep.acquires":   0,
		"sim.lockstep.laneRounds": 0,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if occ := snap.Hists["engine.laneOccupancy"]; occ.Count != 0 {
		t.Errorf("engine.laneOccupancy observed %d groups, want none", occ.Count)
	}
}

// countRounds counts observed rounds; its presence in RunOptions must
// force the scalar engine.
type countRounds struct{ rounds *int }

func (c countRounds) ObserveRound(*fsync.RoundEvent) { *c.rounds++ }
