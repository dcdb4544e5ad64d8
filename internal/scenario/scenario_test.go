package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/spec"
)

// sampleAcross draws count specs from every generator under the seed.
func sampleAcross(t *testing.T, seed uint64, count int) []Spec {
	t.Helper()
	var out []Spec
	for _, g := range Generators() {
		specs, err := Generate(g.Name, GenConfig{}, seed, count)
		if err != nil {
			t.Fatalf("Generate(%s): %v", g.Name, err)
		}
		out = append(out, specs...)
	}
	return out
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, s := range sampleAcross(t, 42, 50) {
		data, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", s.ID(), err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.ID(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the spec:\nin  %+v\nout %+v", s, back)
		}
		// Encoding is deterministic.
		again, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("encode not deterministic:\n%s\n%s", data, again)
		}
	}
}

func TestDecodeSpecRejectsBadInput(t *testing.T) {
	good, err := (Spec{
		Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+",
		Placement: PlaceRandom, Family: "static", Horizon: 1600, Seed: 1,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"garbage", "{", "decode"},
		{"unknown field", `{"version":1,"bogus":3}`, "bogus"},
		{"wrong version", strings.Replace(string(good), `"version":1`, `"version":99`, 1), "version"},
		{"zero robots", strings.Replace(string(good), `"robots":3`, `"robots":0`, 1), "robots"},
		{"bad family", strings.Replace(string(good), `"family":"static"`, `"family":"wormhole"`, 1), "family"},
		{"bad algorithm", strings.Replace(string(good), `"algorithm":"pef3+"`, `"algorithm":"magic"`, 1), "algorithm"},
		{"bad placement", strings.Replace(string(good), `"placement":"random"`, `"placement":"pile"`, 1), "placement"},
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Trailing data after the document is rejected; trailing whitespace
	// is not.
	if _, err := DecodeSpec(append(good, []byte(`{"version":99}`)...)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing JSON: err = %v, want trailing-data error", err)
	}
	if _, err := DecodeSpec(append(good, []byte("garbage")...)); err == nil {
		t.Error("trailing garbage: want error")
	}
	if _, err := DecodeSpec(append(good, '\n', ' ')); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
}

func TestGenerateRejectsImpossibleBounds(t *testing.T) {
	if _, err := Generate("uniform", GenConfig{MaxRing: 3}, 1, 1); err == nil || !strings.Contains(err.Error(), "MaxRing") {
		t.Errorf("MaxRing 3: err = %v, want MaxRing error", err)
	}
	if _, err := Generate("uniform", GenConfig{MinRing: 10, MaxRing: 6}, 1, 1); err == nil || !strings.Contains(err.Error(), "MinRing") {
		t.Errorf("MaxRing < MinRing: err = %v, want bounds error", err)
	}
	if _, err := Generate("uniform", GenConfig{MaxRobots: 2}, 1, 1); err == nil || !strings.Contains(err.Error(), "MaxRobots") {
		t.Errorf("MaxRobots 2: err = %v, want MaxRobots error", err)
	}
	// An honored explicit cap: every sampled ring stays within it.
	specs, err := Generate("boundary", GenConfig{MaxRing: 5}, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Ring > 5 {
			t.Fatalf("MaxRing 5 ignored: sampled ring %d in %s", s.Ring, s.ID())
		}
	}
}

func TestSpecIDsDistinctAndDeterministic(t *testing.T) {
	specs := sampleAcross(t, 7, 100)
	seen := map[string]Spec{}
	for _, s := range specs {
		id := s.ID()
		if id != s.ID() {
			t.Fatal("ID is not deterministic")
		}
		if prev, dup := seen[id]; dup && !reflect.DeepEqual(prev, s) {
			t.Fatalf("distinct specs share ID %s:\n%+v\n%+v", id, prev, s)
		}
		seen[id] = s
	}
	// IDs distinguish arbitrarily close parameter values, not just the
	// generators' quantized grid.
	a := Spec{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceRandom,
		Family: "bernoulli", Params: Params{P: 0.1234561}, Horizon: 1600, Seed: 1}
	b := a
	b.Params.P = 0.1234559
	if a.ID() == b.ID() {
		t.Fatalf("distinct probabilities share ID %s", a.ID())
	}
}

func TestGenerateDeterministicAndPrefixStable(t *testing.T) {
	for _, g := range Generators() {
		a, err := Generate(g.Name, GenConfig{}, 11, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(g.Name, GenConfig{}, 11, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different spec streams", g.Name)
		}
		// A longer stream extends a shorter one.
		short, err := Generate(g.Name, GenConfig{}, 11, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(short, a[:20]) {
			t.Fatalf("%s: stream is not prefix-stable", g.Name)
		}
		// A different seed changes the stream.
		c, err := Generate(g.Name, GenConfig{}, 12, 60)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 11 and 12 produced identical streams", g.Name)
		}
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	for _, s := range sampleAcross(t, 99, 200) {
		if err := s.Validate(); err != nil {
			t.Fatalf("generated invalid spec %+v: %v", s, err)
		}
		if s.Expect == "" {
			t.Fatalf("generator left expectation open: %s", s.ID())
		}
	}
}

func TestExpectation(t *testing.T) {
	cases := []struct {
		n, k   int
		alg    string
		family string
		want   string
	}{
		{8, 3, "pef3+", "bernoulli", ExpectExplore},
		{3, 2, "pef2", "static", ExpectExplore},
		{2, 1, "pef1", "roving", ExpectExplore},
		{8, 3, "keep-direction", "bernoulli", ExpectNone},
		{8, 2, "pef3+", "bernoulli", ExpectNone},
		{3, 2, "pef3+", "static", ExpectNone},
		{8, 1, "pef3+", FamilyConfineOne, ExpectConfine},
		{8, 2, "pef2", FamilyConfineTwo, ExpectConfine},
	}
	for _, c := range cases {
		s := Spec{Ring: c.n, Robots: c.k, Algorithm: c.alg, Family: c.family}
		if got := Expectation(s); got != c.want {
			t.Errorf("Expectation(n=%d k=%d %s %s) = %s, want %s", c.n, c.k, c.alg, c.family, got, c.want)
		}
	}
}

func TestOracleExploresInThreshold(t *testing.T) {
	// A representative in-threshold spec per family must satisfy the
	// exploration predicate.
	src := prng.NewSource(5)
	for _, family := range DefaultRegistry().stockGraphFamilies() {
		p, _ := sampleFamily(DefaultRegistry(), src, family, 8)
		s := Spec{
			Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+",
			Placement: PlaceEven, Family: family, Params: p,
			Horizon: exploreHorizon(8, p), Seed: 23,
		}
		v := Run(s)
		if !v.OK || v.Outcome != "explored" || v.Err != "" {
			t.Errorf("%s: verdict %+v", family, v)
		}
		if v.Covered != 8 || v.CoverTime < 0 {
			t.Errorf("%s: missing metrics in verdict %+v", family, v)
		}
	}
}

func TestOracleConfinesUnderThreshold(t *testing.T) {
	one := Run(Spec{
		Version: Version, Ring: 8, Robots: 1, Algorithm: "pef3+",
		Placement: PlaceRandom, Family: FamilyConfineOne, Horizon: 512, Seed: 3,
	})
	if !one.OK || one.Outcome != "confined" || one.Distinct > 2 {
		t.Fatalf("confine-one verdict %+v", one)
	}
	two := Run(Spec{
		Version: Version, Ring: 8, Robots: 2, Algorithm: "bounce-on-missing",
		Placement: PlaceRandom, Family: FamilyConfineTwo, Horizon: 512, Seed: 3,
	})
	if !two.OK || two.Outcome != "confined" || two.Distinct > 3 {
		t.Fatalf("confine-two verdict %+v", two)
	}
}

func TestOracleFlagsImpossibleExpectation(t *testing.T) {
	// Demanding exploration from one robot on an 8-ring under the
	// Theorem 5.1 adversary must yield a violation, not a pass: the
	// oracle distinguishes "predicate fails" from "run errored".
	v := Run(Spec{
		Version: Version, Ring: 8, Robots: 1, Algorithm: "pef3+",
		Placement: PlaceRandom, Family: FamilyConfineOne, Horizon: 512, Seed: 3,
		Expect: ExpectExplore,
	})
	if v.OK || v.Violation == "" || v.Err != "" {
		t.Fatalf("want explore violation, got %+v", v)
	}
}

func TestOracleErrorVerdictOnInvalidSpec(t *testing.T) {
	v := Run(Spec{Version: Version, Ring: 1, Robots: 1, Algorithm: "pef3+", Placement: PlaceRandom, Family: "static", Horizon: 10})
	if v.Err == "" || v.OK {
		t.Fatalf("invalid spec must yield an error verdict, got %+v", v)
	}
}

func TestCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) (string, string, []string) {
		var order []string
		c, err := RunCampaign(context.Background(), CampaignConfig{
			Generator: "boundary",
			Count:     60,
			Seeds:     []uint64{1, 2},
			Workers:   workers,
			OnVerdict: func(v Verdict) { order = append(order, v.ID) },
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var rep, js strings.Builder
		if err := c.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return rep.String(), js.String(), order
	}
	rep1, js1, order1 := render(1)
	rep8, js8, order8 := render(8)
	if rep1 != rep8 {
		t.Error("campaign report differs between workers=1 and workers=8")
	}
	if js1 != js8 {
		t.Error("campaign JSON differs between workers=1 and workers=8")
	}
	if !reflect.DeepEqual(order1, order8) {
		t.Error("OnVerdict order differs between worker counts")
	}
	if len(order1) != 120 {
		t.Fatalf("streamed %d verdicts, want 120", len(order1))
	}
}

func TestCampaignZeroViolationsInThreshold(t *testing.T) {
	// The acceptance predicate of the subsystem: generated in-threshold
	// scenarios must satisfy the paper's predicates with zero
	// violations.
	for _, gen := range []string{"uniform", "adversarial"} {
		c, err := RunCampaign(context.Background(), CampaignConfig{
			Generator: gen, Count: 40, Seeds: []uint64{5},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.Violations() {
			t.Errorf("%s: violation %s: %s%s", gen, v.ID, v.Violation, v.Err)
		}
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := RunCampaign(ctx, CampaignConfig{Generator: "uniform", Count: 10, Seeds: []uint64{1}})
	if err == nil {
		t.Fatal("want context error")
	}
	if len(c.Verdicts) != 10 {
		t.Fatalf("got %d verdict slots, want 10", len(c.Verdicts))
	}
	cancelledErrs := 0
	for _, v := range c.Verdicts {
		if strings.Contains(v.Err, "cancelled") {
			cancelledErrs++
		}
	}
	if cancelledErrs == 0 {
		t.Fatal("no verdict carries the cancellation error")
	}
}

// TestVerdictDistinctMatchesConfinementTracker pins the oracle's Distinct,
// now read off the visit tracker's coverage, to the confinement tracker it
// replaced: for every generator, a ConfinementTracker attached as an extra
// observer (which keeps the run on the scalar path) counts the same nodes.
func TestVerdictDistinctMatchesConfinementTracker(t *testing.T) {
	for _, g := range Generators() {
		specs, err := Generate(g.Name, GenConfig{}, 13, 40)
		if err != nil {
			t.Fatalf("Generate(%s): %v", g.Name, err)
		}
		for _, s := range specs {
			ct := spec.NewConfinementTracker()
			v, err := RunWith(context.Background(), s, RunOptions{Observers: []fsync.Observer{ct}})
			if err != nil {
				t.Fatalf("%s %s: %v", g.Name, s.ID(), err)
			}
			if v.Distinct != ct.Distinct() {
				t.Fatalf("%s %s: verdict Distinct %d, confinement tracker %d", g.Name, s.ID(), v.Distinct, ct.Distinct())
			}
		}
	}
}
