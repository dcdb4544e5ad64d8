package fsync

import (
	"strings"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
)

// keepDir is a minimal test algorithm: never changes direction.
func keepDir() robot.Algorithm {
	return robot.NewTable("test-keep", func(bool, robot.View) (bool, bool) { return false, false })
}

// flipOnTower flips direction when co-located with another robot.
func flipOnTower() robot.Algorithm {
	return robot.NewTable("test-flip-on-tower", func(_ bool, v robot.View) (bool, bool) {
		return v.OtherRobots, false
	})
}

// badCore is a Core whose Compute leaves dir neither Left nor Right.
type badCore struct{ dir robot.LocalDir }

func (c *badCore) Dir() robot.LocalDir    { return c.dir }
func (c *badCore) Compute(robot.View)     { c.dir = 0 }
func (c *badCore) State() robot.StateCode { return robot.DirState(c.dir) }

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	static := Oblivious{G: dyngraph.NewStatic(5)}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil algorithm", Config{Dynamics: static, Placements: EvenPlacements(5, 2)}},
		{"nil dynamics", Config{Algorithm: keepDir(), Placements: EvenPlacements(5, 2)}},
		{"no robots", Config{Algorithm: keepDir(), Dynamics: static}},
		{"k >= n", Config{Algorithm: keepDir(), Dynamics: static, Placements: EvenPlacements(5, 5)}},
		{"invalid node", Config{Algorithm: keepDir(), Dynamics: static,
			Placements: []Placement{{Node: 9, Chirality: robot.RightIsCW}}}},
		{"invalid chirality", Config{Algorithm: keepDir(), Dynamics: static,
			Placements: []Placement{{Node: 0, Chirality: 0}}}},
		{"initial tower", Config{Algorithm: keepDir(), Dynamics: static,
			Placements: []Placement{{Node: 1, Chirality: robot.RightIsCW}, {Node: 1, Chirality: robot.RightIsCW}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAllowTowersAndAllowFull(t *testing.T) {
	static := Oblivious{G: dyngraph.NewStatic(3)}
	_, err := New(Config{
		Algorithm: keepDir(), Dynamics: static, AllowTowers: true,
		Placements: []Placement{{Node: 1, Chirality: robot.RightIsCW}, {Node: 1, Chirality: robot.RightIsCW}},
	})
	if err != nil {
		t.Fatalf("AllowTowers rejected tower: %v", err)
	}
	_, err = New(Config{
		Algorithm: keepDir(), Dynamics: static, AllowFull: true, AllowTowers: true,
		Placements: []Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 1, Chirality: robot.RightIsCW},
			{Node: 2, Chirality: robot.RightIsCW},
		},
	})
	if err != nil {
		t.Fatalf("AllowFull rejected k=n: %v", err)
	}
}

func TestKeepDirectionWalksGlobally(t *testing.T) {
	// A keep-direction robot with RightIsCW chirality starts pointing Left,
	// i.e. globally CCW, and must circle the static ring counter-clockwise.
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	want := []int{4, 3, 2, 1, 0}
	for i, w := range want {
		ev := sim.Step()
		if got := ev.After.Positions[0]; got != w {
			t.Fatalf("step %d: robot at %d, want %d", i, got, w)
		}
		if !ev.Moved[0] {
			t.Fatalf("step %d: robot did not move on a static ring", i)
		}
	}
}

func TestChiralityMirrorsGlobalMotion(t *testing.T) {
	// Same algorithm, opposite chirality: the robot must walk clockwise.
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCCW}},
	})
	ev := sim.Step()
	if got := ev.After.Positions[0]; got != 1 {
		t.Fatalf("robot at %d, want 1 (global CW)", got)
	}
}

func TestBlockedRobotStays(t *testing.T) {
	// Remove the CCW edge of node 0 (edge 4 on a 5-ring) forever: the
	// keep-direction robot pointing CCW can never move.
	g := dyngraph.NewEventualMissing(dyngraph.NewStatic(5), 4, 0)
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: g},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	for i := 0; i < 10; i++ {
		ev := sim.Step()
		if ev.Moved[0] || ev.After.Positions[0] != 0 {
			t.Fatalf("step %d: blocked robot moved", i)
		}
	}
}

func TestMoveUsesPostComputeDirection(t *testing.T) {
	// Two robots meeting must use the direction chosen during Compute of
	// the same round for their Move: with flipOnTower, a robot that walks
	// into another one at time t flips at t+1's compute... Precisely:
	// robots on nodes 0 and 2 of a 4-ring, both walking CCW (0→3, 2→1),
	// then (3→2, 1→0), then they are at distance 2 again; with a 5-ring
	// start 0 and 1: r0 goes 0→4, r1 goes 1→0 — never meet. Use same node
	// approach: robots at 0 and 2 on a 4-ring walk CCW forever staying at
	// distance 2, so no tower ever forms; sanity-check that.
	sim := mustSim(t, Config{
		Algorithm: flipOnTower(),
		Dynamics:  Oblivious{G: dyngraph.NewStatic(4)},
		Placements: []Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 2, Chirality: robot.RightIsCW},
		},
	})
	for i := 0; i < 8; i++ {
		ev := sim.Step()
		if len(ev.After.Towers()) != 0 {
			t.Fatalf("step %d: unexpected tower", i)
		}
	}
}

func TestTowerFormationAndFlip(t *testing.T) {
	// Opposite chirality robots at distance 2 walk towards each other and
	// meet: r0 at node 0 (RightIsCW, dir Left → CCW), r1 at node 3
	// (RightIsCCW, dir Left → CW). On a 5-ring: r0 0→4, r1 3→4 — tower at
	// node 4 at time 1. With flipOnTower both flip at round 1's Compute
	// and walk apart at round 1's Move.
	sim := mustSim(t, Config{
		Algorithm: flipOnTower(),
		Dynamics:  Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 3, Chirality: robot.RightIsCCW},
		},
	})
	ev := sim.Step()
	if p := ev.After.Positions; p[0] != 4 || p[1] != 4 {
		t.Fatalf("after step 0 positions %v, want tower on 4", p)
	}
	if tw := ev.After.Towers(); len(tw) != 1 || tw[0].Node != 4 {
		t.Fatalf("Towers = %v", ev.After.Towers())
	}
	ev = sim.Step()
	if p := ev.After.Positions; p[0] != 0 || p[1] != 3 {
		t.Fatalf("robots did not separate after flip: %v", p)
	}
	if !ev.Flipped[0] || !ev.Flipped[1] {
		t.Fatal("Flipped flags not set on tower break")
	}
}

func TestSnapshotReflectsStateAndMoved(t *testing.T) {
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(4)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	snap := sim.Snapshot()
	if snap.T != 0 || snap.MovedPrev[0] {
		t.Fatal("initial snapshot wrong")
	}
	if snap.GlobalDirs[0] != ring.CCW {
		t.Fatalf("initial global dir %v, want CCW", snap.GlobalDirs[0])
	}
	if snap.States[0].String() != "dir=left" {
		t.Fatalf("state = %q", snap.States[0])
	}
	sim.Step()
	snap = sim.Snapshot()
	if snap.T != 1 || !snap.MovedPrev[0] {
		t.Fatal("post-step snapshot wrong")
	}
}

func TestRecordGraphCapturesDynamics(t *testing.T) {
	g := dyngraph.NewEventualMissing(dyngraph.NewStatic(4), 2, 3)
	sim := mustSim(t, Config{
		Algorithm:   keepDir(),
		Dynamics:    Oblivious{G: g},
		Placements:  EvenPlacements(4, 1),
		RecordGraph: true,
	})
	sim.Run(6)
	rec := sim.RecordedGraph()
	if rec == nil || rec.Horizon() != 6 {
		t.Fatalf("recorded horizon = %v", rec)
	}
	for tt := 0; tt < 6; tt++ {
		for e := 0; e < 4; e++ {
			if rec.Present(e, tt) != g.Present(e, tt) {
				t.Fatalf("recorded graph differs at edge %d t=%d", e, tt)
			}
		}
	}
}

func TestObserverSeesEveryRound(t *testing.T) {
	var rounds []int
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(4)},
		Placements: EvenPlacements(4, 2),
		Observers: []Observer{ObserverFunc(func(ev *RoundEvent) {
			rounds = append(rounds, ev.T)
		})},
	})
	sim.Run(5)
	if len(rounds) != 5 {
		t.Fatalf("observer saw %d rounds, want 5", len(rounds))
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("rounds = %v", rounds)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		sim := mustSim(t, Config{
			Algorithm:  flipOnTower(),
			Dynamics:   Oblivious{G: dyngraph.NewStatic(7)},
			Placements: RandomPlacements(7, 3, prng.NewSource(42)),
		})
		sim.Run(50)
		return sim.Snapshot().Positions
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic run: %v vs %v", a, b)
		}
	}
}

func TestPlacementHelpers(t *testing.T) {
	ps := EvenPlacements(8, 4)
	want := []int{0, 2, 4, 6}
	for i, p := range ps {
		if p.Node != want[i] {
			t.Fatalf("EvenPlacements = %v", ps)
		}
	}
	ps = AdjacentPlacements(5, 3, 4)
	if ps[0].Node != 4 || ps[1].Node != 0 || ps[2].Node != 1 {
		t.Fatalf("AdjacentPlacements = %v", ps)
	}
	ps = RandomPlacements(6, 6, prng.NewSource(1))
	seen := map[int]bool{}
	for _, p := range ps {
		if seen[p.Node] {
			t.Fatal("RandomPlacements produced duplicate node")
		}
		seen[p.Node] = true
	}
}

func TestCustomInitialCore(t *testing.T) {
	// A placement-provided core overrides the algorithm's initial state.
	alg := flipOnTower()
	core := alg.NewCore()
	core.Compute(robot.View{OtherRobots: true}) // flips to Right
	sim := mustSim(t, Config{
		Algorithm:  alg,
		Dynamics:   Oblivious{G: dyngraph.NewStatic(4)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW, Core: core}},
	})
	ev := sim.Step()
	if got := ev.After.Positions[0]; got != 1 {
		t.Fatalf("custom core ignored: robot at %d, want 1", got)
	}
}

func TestStepPanicsOnInvalidDirection(t *testing.T) {
	// The engine, not the core, guards the dir variable: a core that
	// computes a direction other than Left or Right stops the round.
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(4)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW, Core: &badCore{dir: robot.Left}}},
	})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "robot 0 computed invalid direction") {
			t.Fatalf("Step recovered %v, want the invalid-direction panic", r)
		}
	}()
	sim.Step()
}

func TestResetReusesSimulatorAcrossShapes(t *testing.T) {
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	sim.Run(10)
	first := sim.Snapshot()
	// Reconfigure in place: different ring size, team size, and dynamics.
	if err := sim.Reset(Config{
		Algorithm:  flipOnTower(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(7)},
		Placements: EvenPlacements(7, 3),
	}); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != 0 || sim.Robots() != 3 || sim.Ring().Size() != 7 {
		t.Fatalf("Reset left time=%d robots=%d n=%d", sim.Now(), sim.Robots(), sim.Ring().Size())
	}
	sim.Run(10)
	second := sim.Snapshot()
	if len(second.Positions) != 3 {
		t.Fatalf("second run positions = %v", second.Positions)
	}
	// The first run's final snapshot must be untouched by the reuse.
	if len(first.Positions) != 1 {
		t.Fatalf("first run snapshot corrupted: %v", first.Positions)
	}
	// A failed Reset reports its error like New.
	if err := sim.Reset(Config{Dynamics: Oblivious{G: dyngraph.NewStatic(4)}}); err == nil {
		t.Fatal("Reset accepted a nil algorithm")
	}
}

func TestRoundEventBuffersReusedAcrossSteps(t *testing.T) {
	// The documented retention contract: RoundEvent slices belong to the
	// simulator and are rewritten by the next Step, while Clone detaches.
	sim := mustSim(t, Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	ev := sim.Step()
	kept := ev.After.Clone()
	pos := ev.After.Positions
	sim.Step()
	if kept.Positions[0] != 4 {
		t.Fatalf("cloned snapshot changed: %v", kept.Positions)
	}
	if pos[0] == 4 {
		t.Fatal("event buffer was not reused (expected the next step to overwrite it)")
	}
}
