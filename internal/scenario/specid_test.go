package scenario

import (
	"reflect"
	"testing"
)

// TestSpecIDCoversEveryField is the cache-key audit: the canonical ID
// must change when any verdict-affecting Spec field changes, because
// pef serve's verdict cache addresses content by it. Every field of Spec
// and Params is perturbed individually; each perturbation must produce
// an ID distinct from the base and from every other perturbation.
//
// Version is the one deliberate exception: the ID renders the process
// constant (every in-process spec has it — DecodeSpec rejects foreign
// versions) and the cache fingerprint hashes scenario.Version, so a
// format bump still invalidates stored verdicts.
func TestSpecIDCoversEveryField(t *testing.T) {
	// Field-count tripwires: adding a field to Spec or Params without
	// extending this test (and hence auditing the ID and the verdict
	// cache key) must fail loudly here.
	if n := reflect.TypeOf(Spec{}).NumField(); n != 10 {
		t.Fatalf("Spec has %d fields (this test covers 10): extend the ID, this audit, and the verdict-cache key", n)
	}
	if n := reflect.TypeOf(Params{}).NumField(); n != 10 {
		t.Fatalf("Params has %d fields (this test covers 10): extend the ID, this audit, and the verdict-cache key", n)
	}

	base := Spec{
		Version:   Version,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: PlaceEven,
		Family:    "bernoulli",
		Params:    Params{P: 0.5},
		Horizon:   200,
		Seed:      7,
	}
	perturbed := map[string]Spec{}
	mut := func(name string, f func(*Spec)) {
		s := base
		f(&s)
		perturbed[name] = s
	}
	mut("Ring", func(s *Spec) { s.Ring = 9 })
	mut("Robots", func(s *Spec) { s.Robots = 2 })
	mut("Algorithm", func(s *Spec) { s.Algorithm = "pef2" })
	mut("Placement", func(s *Spec) { s.Placement = PlaceAdjacent })
	mut("Family", func(s *Spec) { s.Family = "static" })
	mut("Params.P", func(s *Spec) { s.Params.P = 0.25 })
	mut("Params.Up", func(s *Spec) { s.Params.Up = 0.5 })
	mut("Params.Down", func(s *Spec) { s.Params.Down = 0.5 })
	mut("Params.Delta", func(s *Spec) { s.Params.Delta = 4 })
	mut("Params.Edge", func(s *Spec) { s.Params.Edge = 2 })
	mut("Params.From", func(s *Spec) { s.Params.From = 3 })
	mut("Params.Period", func(s *Spec) { s.Params.Period = 5 })
	mut("Params.T", func(s *Spec) { s.Params.T = 6 })
	mut("Params.Cut", func(s *Spec) { s.Params.Cut = 1 })
	mut("Params.Budget", func(s *Spec) { s.Params.Budget = 12 })
	mut("Horizon", func(s *Spec) { s.Horizon = 201 })
	mut("Seed", func(s *Spec) { s.Seed = 8 })
	mut("Expect", func(s *Spec) { s.Expect = ExpectNone })

	seen := map[string]string{base.ID(): "base"}
	for name, s := range perturbed {
		id := s.ID()
		if prev, dup := seen[id]; dup {
			t.Errorf("perturbing %s left the ID identical to %s: %q", name, prev, id)
			continue
		}
		seen[id] = name
	}
}

// TestSpecIDParamValuesDistinct guards the float rendering: parameter
// values that differ only past a short decimal prefix must still get
// distinct IDs (trimFloat is shortest-round-trip, not fixed-precision).
func TestSpecIDParamValuesDistinct(t *testing.T) {
	a := Spec{Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceEven,
		Family: "bernoulli", Params: Params{P: 0.1}, Horizon: 100, Seed: 1}
	b := a
	b.Params.P = 0.1000000001
	if a.ID() == b.ID() {
		t.Fatalf("distinct P values collided in the ID: %q", a.ID())
	}
}
