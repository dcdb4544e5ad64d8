package pef

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestExploreStaticRing(t *testing.T) {
	rep, err := Explore(context.Background(), ExploreConfig{
		Robots:    3,
		Algorithm: PEF3Plus(),
		Dynamics:  Static(8),
		Horizon:   200,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PerpetuallyExplored(64) {
		t.Fatalf("static ring not explored: %s", rep)
	}
}

func TestExploreEventualMissing(t *testing.T) {
	rep, err := Explore(context.Background(), ExploreConfig{
		Robots:    3,
		Algorithm: PEF3Plus(),
		Dynamics:  EventualMissing(8, 2, 30, 7),
		Horizon:   1600,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 8 || rep.CoverTime < 0 {
		t.Fatalf("eventual-missing ring not covered: %s", rep)
	}
}

func TestExploreAllThreeAlgorithmsInTheirRange(t *testing.T) {
	cases := []struct {
		name string
		cfg  ExploreConfig
	}{
		{"pef3+ n=5 k=3", ExploreConfig{Robots: 3, Algorithm: PEF3Plus(), Dynamics: Bernoulli(5, 0.6, 3), Horizon: 1200, Seed: 3}},
		{"pef2 n=3 k=2", ExploreConfig{Robots: 2, Algorithm: PEF2(), Dynamics: Bernoulli(3, 0.6, 4), Horizon: 1200, Seed: 4}},
		{"pef1 n=2 k=1", ExploreConfig{Robots: 1, Algorithm: PEF1(), Dynamics: Bernoulli(2, 0.6, 5), Horizon: 800, Seed: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Explore(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Covered != rep.Nodes {
				t.Fatalf("not covered: %s", rep)
			}
			if rep.MaxGap > c.cfg.Horizon/2 {
				t.Fatalf("gap too large: %s", rep)
			}
		})
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(context.Background(), ExploreConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Explore(context.Background(), ExploreConfig{Algorithm: PEF1(), Dynamics: Static(4), Robots: 4}); err == nil {
		t.Error("k = n accepted")
	}
	if _, err := Explore(context.Background(), ExploreConfig{Algorithm: PEF1(), Dynamics: Static(4), Robots: 1, Nodes: 5}); err == nil {
		t.Error("inconsistent Nodes accepted")
	}
}

func TestConfineOneRobotFacade(t *testing.T) {
	rep, _, err := ConfineOneRobotWithDiagram(PEF3Plus(), 8, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Confined || rep.DistinctVisited > 2 {
		t.Fatalf("one robot escaped: %+v", rep)
	}
	if len(rep.VisitedNodes) != rep.DistinctVisited {
		t.Fatal("VisitedNodes inconsistent")
	}
}

func TestConfineTwoRobotsFacade(t *testing.T) {
	rep, _, err := ConfineTwoRobotsWithDiagram(PEF3Plus(), 8, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Confined || rep.DistinctVisited > 3 {
		t.Fatalf("two robots escaped: %+v", rep)
	}
	if rep.Limit != 3 {
		t.Fatalf("limit = %d", rep.Limit)
	}
}

func TestBlockPointedDynamicsFacade(t *testing.T) {
	rep, err := Explore(context.Background(), ExploreConfig{
		Robots:    3,
		Algorithm: PEF3Plus(),
		Dynamics:  BlockPointed(6, 3),
		Horizon:   1200,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 6 {
		t.Fatalf("block-pointed defeated PEF_3+: %s", rep)
	}
}

func TestChainAndRovingDynamics(t *testing.T) {
	for name, dyn := range map[string]Dynamics{
		"chain":  Chain(6, 2, 13),
		"roving": Roving(6, 3),
	} {
		rep, err := Explore(context.Background(), ExploreConfig{
			Robots:    3,
			Algorithm: PEF3Plus(),
			Dynamics:  dyn,
			Horizon:   1800,
			Seed:      13,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Covered != 6 {
			t.Fatalf("%s not covered: %s", name, rep)
		}
	}
}

func TestTIntervalDynamics(t *testing.T) {
	rep, err := Explore(context.Background(), ExploreConfig{
		Robots:    3,
		Algorithm: PEF3Plus(),
		Dynamics:  TInterval(8, 4, 17),
		Horizon:   1600,
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 8 {
		t.Fatalf("t-interval not covered: %s", rep)
	}
}

// TestRegistryFacade pins the facade to the one name registry: algorithm
// names resolve with no registration call, and Algorithms lists exactly
// the default registry's names, sorted.
func TestRegistryFacade(t *testing.T) {
	names := Algorithms()
	want := DefaultRegistry().AlgorithmNames()
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Algorithms() = %v, want the sorted registry names %v", names, want)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"pef1", "pef2", "pef3+", "bounce-on-missing"} {
		if !strings.Contains(joined, want) {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	alg, err := NewAlgorithm("pef3+")
	if err != nil || alg.Name() != "pef3+" {
		t.Fatalf("NewAlgorithm: %v", err)
	}
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestExplicitPlacements(t *testing.T) {
	rep, err := Explore(context.Background(), ExploreConfig{
		Algorithm: PEF3Plus(),
		Dynamics:  Static(6),
		Horizon:   120,
		Placements: []Placement{
			{Node: 0, Chirality: RightIsCW},
			{Node: 2, Chirality: RightIsCCW},
			{Node: 4, Chirality: RightIsCW},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 6 {
		t.Fatalf("explicit placements run failed: %s", rep)
	}
}
