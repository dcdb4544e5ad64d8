package ssync

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/robot"
)

func TestPointedEdgeAdversaryBlocksEverything(t *testing.T) {
	algs := []robot.Algorithm{
		core.PEF3Plus, core.PEF2, core.PEF1,
		baseline.KeepDirection, baseline.BounceOnMissing,
		baseline.TowerBounce, baseline.Oscillator,
		baseline.DoublingZigzag{}, baseline.LCGWalker{Seed: 3},
	}
	for _, alg := range algs {
		chirs := []robot.Chirality{robot.RightIsCW, robot.RightIsCCW, robot.RightIsCW}
		adv := NewPointedEdgeAdversary(7, alg, chirs)
		sim, err := New(Config{
			Algorithm:   alg,
			Dynamics:    adv,
			Activation:  RoundRobin{K: 3},
			Nodes:       []int{0, 2, 4},
			Chiralities: chirs,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(300)
		if sim.Moves() != 0 {
			t.Errorf("%s: %d moves under the pointed-edge adversary", alg.Name(), sim.Moves())
		}
		if adv.SingleRemovals()+adv.BothRemovals() != 300 {
			t.Errorf("%s: removal accounting off: %d+%d", alg.Name(), adv.SingleRemovals(), adv.BothRemovals())
		}
	}
}

func TestPointedEdgeAdversaryUsesSingleRemovalsWhenPossible(t *testing.T) {
	// keep-direction never re-points: removing just its pointed edge is
	// always a fixed point, so every snapshot stays connected.
	chirs := []robot.Chirality{robot.RightIsCW}
	adv := NewPointedEdgeAdversary(5, baseline.KeepDirection, chirs)
	sim, err := New(Config{
		Algorithm:   baseline.KeepDirection,
		Dynamics:    adv,
		Activation:  RoundRobin{K: 1},
		Nodes:       []int{0},
		Chiralities: chirs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(100)
	if sim.Moves() != 0 {
		t.Fatal("keep-direction moved")
	}
	if adv.BothRemovals() != 0 {
		t.Fatalf("keep-direction needed %d both-removals", adv.BothRemovals())
	}
	if adv.SingleRemovals() != 100 {
		t.Fatalf("single removals = %d", adv.SingleRemovals())
	}
}

func TestPointedEdgeAdversaryFallsBackForChasers(t *testing.T) {
	// bounce-on-missing chases whichever edge is present: single-edge
	// removal cannot pin it, so the fallback must fire.
	chirs := []robot.Chirality{robot.RightIsCW}
	adv := NewPointedEdgeAdversary(5, baseline.BounceOnMissing, chirs)
	sim, err := New(Config{
		Algorithm:   baseline.BounceOnMissing,
		Dynamics:    adv,
		Activation:  RoundRobin{K: 1},
		Nodes:       []int{0},
		Chiralities: chirs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(50)
	if sim.Moves() != 0 {
		t.Fatal("bounce-on-missing moved")
	}
	if adv.BothRemovals() == 0 {
		t.Fatal("expected both-removal fallbacks for a present-edge chaser")
	}
}

func TestPointedEdgeAdversaryRejectsMultiActivation(t *testing.T) {
	adv := NewPointedEdgeAdversary(5, baseline.KeepDirection, []robot.Chirality{robot.RightIsCW, robot.RightIsCW})
	defer func() {
		if recover() == nil {
			t.Fatal("multi-activation accepted")
		}
	}()
	adv.EdgesAt(0, []int{0, 2}, []int{0, 1})
}

func TestPointedEdgeAdversaryIdleInstant(t *testing.T) {
	adv := NewPointedEdgeAdversary(4, baseline.KeepDirection, []robot.Chirality{robot.RightIsCW})
	edges := adv.EdgesAt(0, []int{0}, nil)
	if !edges.IsFull() {
		t.Fatal("no activation should leave the graph intact")
	}
}
