package scenario

import (
	"strings"
	"testing"
)

// violatingSpec is a deterministic counterexample workload: the
// oscillator baseline never leaves its starting neighborhood, so forcing
// the explore expectation on it violates the predicate at any size.
func violatingSpec() Spec {
	return Spec{
		Version:   Version,
		Ring:      12,
		Robots:    3,
		Algorithm: "oscillator",
		Placement: PlaceAdjacent,
		Family:    "static",
		Horizon:   2400,
		Seed:      7,
		Expect:    ExpectExplore,
	}
}

func TestMinimizeLeavesPassingSpecsAlone(t *testing.T) {
	s := Spec{
		Version:   Version,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: PlaceEven,
		Family:    "static",
		Horizon:   1600,
		Seed:      1,
	}
	if v := Run(s); !v.OK {
		t.Fatalf("baseline spec unexpectedly fails: %+v", v)
	}
	if got := Minimize(s); got != s {
		t.Fatalf("Minimize changed a passing spec:\n got %+v\nwant %+v", got, s)
	}
}

func TestMinimizeShrinksAndPreservesViolation(t *testing.T) {
	s := violatingSpec()
	v := Run(s)
	if v.OK || v.Err != "" {
		t.Fatalf("seed spec is not a clean violation: %+v", v)
	}
	m := Minimize(s)
	mv := Run(m)
	if mv.OK || mv.Err != "" {
		t.Fatalf("minimized spec no longer violates cleanly: %+v", mv)
	}
	if mv.Expect != v.Expect {
		t.Fatalf("minimization switched the enforced predicate: %s vs %s", mv.Expect, v.Expect)
	}
	if m.Ring > s.Ring || m.Robots > s.Robots || m.Horizon > s.Horizon {
		t.Fatalf("minimized spec grew: %+v", m)
	}
	if m.Ring == s.Ring && m.Horizon == s.Horizon && m.Robots == s.Robots {
		t.Fatalf("minimizer made no progress on an obviously shrinkable spec: %+v", m)
	}
}

func TestMinimizeIsIdempotentAndDeterministic(t *testing.T) {
	s := violatingSpec()
	first := Minimize(s)
	if again := Minimize(s); again != first {
		t.Fatalf("Minimize is not deterministic:\n %+v\nvs %+v", again, first)
	}
	if twice := Minimize(first); twice != first {
		t.Fatalf("Minimize is not idempotent:\n %+v\nvs %+v", twice, first)
	}
}

func TestMinimizePreservesErrorSignature(t *testing.T) {
	s := violatingSpec()
	s.Algorithm = "no-such-algorithm" // error verdict, not a violation
	if v := Run(s); v.Err == "" {
		t.Fatalf("seed spec did not error: %+v", v)
	}
	m := Minimize(s)
	if mv := Run(m); mv.Err == "" {
		t.Fatalf("minimized spec lost the error signature: %+v", mv)
	}
}

// TestMinimizeKeepsViolationKind pins a revisit-gap finding of the search
// (pef search -seed 43 -generations 12 -generation-size 256): a slow
// Markov ring whose edges return after 1/up = 100 rounds on average. Its
// reproducer must still break the revisit-gap bound, not collapse into a
// horizon so short that a node is simply visited once.
func TestMinimizeKeepsViolationKind(t *testing.T) {
	s := Spec{
		Version:   Version,
		Ring:      11,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: PlaceEven,
		Family:    "markov",
		Params:    Params{Up: 0.01, Down: 0.55},
		Horizon:   2200,
		Seed:      14617434723818034084,
		Expect:    ExpectExplore,
	}
	const gap = "max revisit gap "
	if v := Run(s); v.OK || !strings.HasPrefix(v.Violation, gap) {
		t.Fatalf("seed spec is not a revisit-gap violation: %+v", v)
	}
	m := Minimize(s)
	mv := Run(m)
	if mv.OK || mv.Err != "" || !strings.HasPrefix(mv.Violation, gap) {
		t.Fatalf("minimized %s fails as %q, want a %q violation", m.ID(), mv.Violation, gap)
	}
	if want := "v1/n4.k3/pef3+/even/markov{up=0.01,down=0.55}/h34/s14617434723818034084/explore"; m.ID() != want {
		t.Fatalf("minimized to %s (%s), want %s", m.ID(), mv.Violation, want)
	}
}
