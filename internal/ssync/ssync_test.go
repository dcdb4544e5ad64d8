package ssync

import (
	"testing"

	"pef/internal/core"
	"pef/internal/ring"
	"pef/internal/robot"
)

func TestRoundRobinActivation(t *testing.T) {
	rr := RoundRobin{K: 3}
	for tt := 0; tt < 9; tt++ {
		active := rr.Active(tt, nil)
		if len(active) != 1 || active[0] != tt%3 {
			t.Fatalf("Active(%d) = %v", tt, active)
		}
	}
	if got := (RoundRobin{K: 0}).Active(0, nil); got != nil {
		t.Fatalf("empty system activation = %v", got)
	}
}

// AllActive activates every robot every instant, which makes the SSYNC
// scheduler coincide with FSYNC: the tests below use it to check the SSYNC
// engine against the fsync one.
type AllActive struct {
	K int
}

// Active implements Activation.
func (aa AllActive) Active(_ int, _ []int) []int {
	out := make([]int, aa.K)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestAllActive(t *testing.T) {
	aa := AllActive{K: 4}
	active := aa.Active(17, nil)
	if len(active) != 4 {
		t.Fatalf("Active = %v", active)
	}
	for i, a := range active {
		if a != i {
			t.Fatalf("Active = %v", active)
		}
	}
}

func TestNewValidation(t *testing.T) {
	full := ObliviousFull{R: ring.New(4)}
	cases := []Config{
		{Dynamics: full, Activation: RoundRobin{K: 1}, Nodes: []int{0}, Chiralities: []robot.Chirality{robot.RightIsCW}},                              // nil alg
		{Algorithm: core.PEF3Plus, Activation: RoundRobin{K: 1}, Nodes: []int{0}, Chiralities: []robot.Chirality{robot.RightIsCW}},                    // nil dynamics
		{Algorithm: core.PEF3Plus, Dynamics: full, Activation: RoundRobin{K: 1}},                                                                      // no robots
		{Algorithm: core.PEF3Plus, Dynamics: full, Activation: RoundRobin{K: 1}, Nodes: []int{0, 1}, Chiralities: []robot.Chirality{robot.RightIsCW}}, // length mismatch
		{Algorithm: core.PEF3Plus, Dynamics: full, Activation: RoundRobin{K: 1}, Nodes: []int{9}, Chiralities: []robot.Chirality{robot.RightIsCW}},    // bad node
		{Algorithm: core.PEF3Plus, Dynamics: full, Activation: RoundRobin{K: 1}, Nodes: []int{0}, Chiralities: []robot.Chirality{0}},                  // bad chirality
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAllActiveOnFullGraphMatchesFSYNC(t *testing.T) {
	// With every robot active and all edges present, SSYNC == FSYNC: a
	// keep-direction robot (PEF_3+ alone never meets anyone) circles.
	sim, err := New(Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    ObliviousFull{R: ring.New(5)},
		Activation:  AllActive{K: 1},
		Nodes:       []int{0},
		Chiralities: []robot.Chirality{robot.RightIsCW},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 2, 1, 0}
	for i, w := range want {
		sim.Step()
		if got := sim.Positions()[0]; got != w {
			t.Fatalf("step %d: at %d, want %d", i, got, w)
		}
	}
	if sim.Moves() != 5 || sim.Now() != 5 {
		t.Fatalf("moves=%d now=%d", sim.Moves(), sim.Now())
	}
}

func TestInactiveRobotsDoNothing(t *testing.T) {
	// Round-robin over 2 robots: at each instant only one may move.
	sim, err := New(Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    ObliviousFull{R: ring.New(6)},
		Activation:  RoundRobin{K: 2},
		Nodes:       []int{0, 3},
		Chiralities: []robot.Chirality{robot.RightIsCW, robot.RightIsCW},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Positions()
	sim.Step() // activates robot 0 only
	after := sim.Positions()
	if after[1] != before[1] {
		t.Fatal("inactive robot moved")
	}
	if after[0] == before[0] {
		t.Fatal("active robot did not move on full graph")
	}
}

func TestFreezeAdversaryBlocksEveryVictim(t *testing.T) {
	algs := []robot.Algorithm{core.PEF3Plus, core.PEF2, core.PEF1}
	for _, alg := range algs {
		sim, err := New(Config{
			Algorithm:   alg,
			Dynamics:    NewFreezeAdversary(6),
			Activation:  RoundRobin{K: 3},
			Nodes:       []int{0, 2, 4},
			Chiralities: []robot.Chirality{robot.RightIsCW, robot.RightIsCCW, robot.RightIsCW},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(300)
		if sim.Moves() != 0 {
			t.Fatalf("%s: %d moves under the freeze adversary", alg.Name(), sim.Moves())
		}
	}
}

func TestFreezeAdversaryGraphIsConnectedOverTime(t *testing.T) {
	// With static robots on even nodes and round-robin activation, every
	// edge is present whenever its neighbouring robot is inactive — i.e.
	// at least 2 of every 3 instants.
	adv := NewFreezeAdversary(6)
	positions := []int{0, 2, 4}
	presentCount := make([]int, 6)
	const horizon = 300
	for tt := 0; tt < horizon; tt++ {
		active := (RoundRobin{K: 3}).Active(tt, positions)
		edges := adv.EdgesAt(tt, positions, active)
		for e := 0; e < 6; e++ {
			if edges.Contains(e) {
				presentCount[e]++
			}
		}
	}
	for e, c := range presentCount {
		if c < horizon/2 {
			t.Fatalf("edge %d present only %d/%d instants", e, c, horizon)
		}
	}
}

func TestFreezeAdversaryRemovesActiveNeighbourhood(t *testing.T) {
	adv := NewFreezeAdversary(5)
	edges := adv.EdgesAt(0, []int{2, 4}, []int{0})
	// Robot 0 on node 2: its adjacent edges 1 and 2 must be gone.
	if edges.Contains(1) || edges.Contains(2) {
		t.Fatalf("active robot's edges present: %v", edges)
	}
	// Robot 1 inactive: its edges stay.
	if !edges.Contains(3) || !edges.Contains(4) {
		t.Fatalf("inactive robot's edges removed: %v", edges)
	}
}
