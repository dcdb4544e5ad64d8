package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/spec"
)

// noRounds is a no-op observer. Attached through RunOptions it is an
// override, so the run executes every round to its horizon: the
// full-horizon reference of a run that would retire at its lasso.
type noRounds struct{}

func (noRounds) ObserveRound(*fsync.RoundEvent) {}

// fullHorizon is the options of a scalar run that sees every round.
var fullHorizon = RunOptions{Observers: []fsync.Observer{noRounds{}}}

// lassoSpecs draws the adversary specs of one ring: block-pointed with
// budgets 1–4 (teams of 1 to 5 robots, random placements), confine-one
// and, from n = 4, confine-two, each against every registered victim:
// the nine rule tables and the three counter cores.
func lassoSpecs(n int, src *prng.Source) []Spec {
	var out []Spec
	for _, alg := range DefaultRegistry().stockAlgorithms() {
		for budget := 1; budget <= 4; budget++ {
			out = append(out, Spec{Version: Version, Ring: n, Robots: 1 + src.Intn(min(5, n-1)), Algorithm: alg,
				Placement: PlaceRandom, Family: FamilyBlockPointed, Params: Params{Budget: budget}, Seed: src.Uint64()})
		}
		out = append(out, Spec{Version: Version, Ring: n, Robots: 1, Algorithm: alg, Placement: PlaceRandom, Family: FamilyConfineOne})
		if n >= 4 {
			out = append(out, Spec{Version: Version, Ring: n, Robots: 2, Algorithm: alg, Placement: PlaceRandom, Family: FamilyConfineTwo})
		}
	}
	return out
}

// lassoSim builds a plain scalar simulator of s under a visit tracker,
// looking for its lasso up to horizon when lasso is set.
func lassoSim(t *testing.T, s Spec, lasso bool, horizon int) (*fsync.Simulator, *spec.VisitTracker) {
	t.Helper()
	reg := DefaultRegistry()
	fam, _ := reg.Family(s.Family)
	dyn, err := fam.build(s)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := reg.Algorithm(s.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	vt := spec.NewVisitTracker(s.Ring)
	sim, err := fsync.New(fsync.Config{Algorithm: alg, Dynamics: dyn, Placements: placements(reg, s),
		Observers: []fsync.Observer{vt}, Lasso: lasso, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	return sim, vt
}

// lassoReport runs s to horizon with the lasso on and carries the tracker
// over the skipped rounds, as RunWith does.
func lassoReport(t *testing.T, s Spec, horizon int) (spec.ExplorationReport, bool) {
	t.Helper()
	sim, vt := lassoSim(t, s, true, horizon)
	sim.Run(horizon)
	retired := sim.Retired()
	if retired {
		_, period, skip := sim.Lasso()
		vt.Skip(sim.Now(), period, skip, sim.CycleVisits())
	} else if sim.Now() != horizon {
		t.Fatalf("%s: run stopped at %d of %d rounds without retiring", s.ID(), sim.Now(), horizon)
	}
	return vt.Report(), retired
}

// fullReports runs s every round and returns its reports at the given
// ascending horizons, all from one run.
func fullReports(t *testing.T, s Spec, horizons []int) []spec.ExplorationReport {
	t.Helper()
	sim, vt := lassoSim(t, s, false, 0)
	out := make([]spec.ExplorationReport, len(horizons))
	for i, h := range horizons {
		sim.Run(h)
		out[i] = vt.Report()
	}
	return out
}

// marshal renders a verdict as the JSON a campaign prints.
func marshal(t *testing.T, v Verdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScalarLassoMatchesFullHorizon checks the scalar lasso retirement
// against full runs. On rings 3–20 it learns the detection instant t₂ and
// period p of block-pointed (budgets 1–4), confine-one and confine-two
// against all twelve victims, then runs each at horizons that put H − t₂
// on every residue mod p (a sample of 8 residues when p > 8) with no
// whole period to skip, with one and with many, plus horizons that end
// before the detection, at it and within the period after it. Every
// lasso report (plain simulator plus VisitTracker.Skip) must equal the
// report of one plain run observed to H, every RunWith verdict must
// marshal to the JSON of the same spec run every round, and exactly the
// runs whose horizon lies two periods or more past t₂ may retire. A victim
// that repeats in none of its first 2¹² rounds (lcg-walker-7 always) is run to
// a few horizons and must never retire.
func TestScalarLassoMatchesFullHorizon(t *testing.T) {
	const probe = 1 << 12
	src := prng.NewSource(0x5CA1A)
	ctx := context.Background()
	var runs, retired, want, cycling int
	retiredBy := map[string]int{}
	for n := 3; n <= 20; n++ {
		for _, s := range lassoSpecs(n, src) {
			sim, _ := lassoSim(t, s, true, probe)
			sim.Run(probe)
			at, p, _ := sim.Lasso()
			var horizons []int
			if p == 0 {
				if s.Algorithm != "lcg-walker-7" && s.Family != FamilyBlockPointed {
					t.Fatalf("%s: no repeat within %d rounds", s.ID(), probe)
				}
				horizons = []int{1, 17, 64 * n}
			} else {
				cycling++
				horizons = []int{1, at - 1, at, at + p - 1}
				for i := range min(p, 8) {
					r := i
					if p > 8 {
						r = src.Intn(p)
					}
					horizons = append(horizons, at+p+r, at+2*p+r, at+(3+src.Intn(max(1, 64/p)))*p+r)
				}
			}
			horizons = slices.DeleteFunc(horizons, func(h int) bool { return h < 1 })
			slices.Sort(horizons)
			horizons = slices.Compact(horizons)
			full := fullReports(t, s, horizons)
			for i, h := range horizons {
				s := s
				s.Horizon = h
				rep, ok := lassoReport(t, s, h)
				if !reflect.DeepEqual(rep, full[i]) {
					t.Fatalf("%s (t₂ %d, p %d): lasso report %+v, full run %+v", s.ID(), at, p, rep, full[i])
				}
				got, err := RunWith(ctx, s, RunOptions{})
				if err != nil {
					t.Fatalf("%s: %v", s.ID(), err)
				}
				ref, err := RunWith(ctx, s, fullHorizon)
				if err != nil {
					t.Fatalf("%s: %v", s.ID(), err)
				}
				if g, w := marshal(t, got), marshal(t, ref); g != w {
					t.Fatalf("%s (t₂ %d, p %d): lasso verdict\n%s\nfull-horizon verdict\n%s", s.ID(), at, p, g, w)
				}
				runs++
				if ok {
					retired++
					retiredBy[fmt.Sprintf("%s/%s", s.Family, s.Algorithm)]++
				}
				if p > 0 && h >= at+2*p {
					want++
				}
			}
		}
	}
	if retired != want || retired == 0 {
		t.Fatalf("%d of %d runs retired at their lasso, want %d", retired, runs, want)
	}
	for _, alg := range DefaultRegistry().stockAlgorithms() {
		for _, fam := range []string{FamilyConfineOne, FamilyConfineTwo} {
			n := retiredBy[fam+"/"+alg]
			if lcg := alg == "lcg-walker-7"; lcg != (n == 0) {
				t.Errorf("%s against %s: %d runs retired", alg, fam, n)
			}
		}
	}
	t.Logf("%d runs, %d retired; %d of the specs repeat within %d rounds", runs, retired, cycling, probe)
}
