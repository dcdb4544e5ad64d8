package adversary

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
	"pef/internal/telemetry"
)

// laneCounter reads lane l's absence counter of edge e out of the bit
// planes of the lane form.
func laneCounter(b *BlockPointedLanes, l, e int) int {
	c := 0
	for p, w := range b.run[e*b.planes : (e+1)*b.planes] {
		c |= int(w>>uint(l)&1) << p
	}
	return c
}

// TestLockstepBlockPointedMatchesScalar runs lane blocks that mix
// block-pointed lanes (budgets 1–9, so four bit planes) with Bernoulli
// lanes, mixed team sizes and staggered horizons, and checks round by
// round every lane's positions and pointed directions against a scalar
// Simulator, and every block-pointed lane's absence counters against
// the scalar BlockPointed's — retired lanes included, whose counters must
// stay frozen at their last round.
func TestLockstepBlockPointedMatchesScalar(t *testing.T) {
	algs := []robot.Table{core.PEF3Plus, core.PEF2, baseline.BounceOnMissing, baseline.TowerBounce}
	src := prng.NewSource(0xB10C)
	shared := 0 // pre-round configurations with two robots pointing at one edge
	for trial := 0; trial < 24; trial++ {
		n := 3 + src.Intn(14)
		lanes := 32 + src.Intn(33)
		alg := algs[trial%len(algs)]
		var bp BlockPointedLanes
		cfg := fsync.LockstepConfig{Algorithm: alg, Adversary: &bp}
		budgets := make([]int, lanes)
		sims := make([]*fsync.Simulator, lanes)
		advs := make([]*BlockPointed, lanes)
		for l := range lanes {
			seed := src.Uint64()
			k := 1 + src.Intn(min(5, n-1))
			run := fsync.LaneRun{Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)), Horizon: 10 + src.Intn(90)}
			var dyn fsync.Dynamics
			if l%3 == 2 {
				run.Graph = dynamics.NewBernoulli(n, 0.6, seed)
				dyn = fsync.Oblivious{G: dynamics.NewBernoulli(n, 0.6, seed)}
			} else {
				budgets[l] = 1 + (l-l/3)%9
				advs[l] = NewBlockPointed(n, budgets[l])
				dyn = advs[l]
			}
			cfg.Lanes = append(cfg.Lanes, run)
			sim, err := fsync.New(fsync.Config{Algorithm: alg, Dynamics: dyn, Placements: run.Placements})
			if err != nil {
				t.Fatal(err)
			}
			sims[l] = sim
		}
		bp.Reset(n, budgets)
		ls, err := fsync.NewLockstep(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := ring.New(n)
		for !ls.Done() {
			stepped := ls.Step()
			for l, sim := range sims {
				if stepped&(1<<uint(l)) != 0 {
					ev := sim.Step()
					if advs[l] != nil && pointsTwice(r, ev.Before) {
						shared++
					}
				}
				snap := sim.Snapshot()
				for i, v := range snap.Positions {
					if got := ls.Position(i, l); got != v {
						t.Fatalf("trial %d (n=%d alg=%s) lane %d robot %d at t=%d: lockstep node %d, scalar node %d",
							trial, n, alg.Name(), l, i, ls.Now(), got, v)
					}
					// A retired lane's directions are stale: Compute still
					// runs on it, though it cannot move.
					if got := ls.PointsCW(i)>>uint(l)&1 == 1; stepped>>uint(l)&1 == 1 && got != (snap.GlobalDirs[i] == ring.CW) {
						t.Fatalf("trial %d lane %d robot %d at t=%d: lockstep points CW %v, scalar %v",
							trial, l, i, ls.Now(), got, snap.GlobalDirs[i])
					}
				}
				if advs[l] == nil {
					continue
				}
				for e, want := range advs[l].runs.run {
					if got := laneCounter(&bp, l, e); got != want {
						t.Fatalf("trial %d lane %d (budget %d) edge %d at t=%d: lane counter %d, scalar %d",
							trial, l, budgets[l], e, ls.Now(), got, want)
					}
				}
			}
		}
		for l, sim := range sims {
			if sim.Now() != cfg.Lanes[l].Horizon {
				t.Fatalf("trial %d lane %d: scalar ran %d rounds, want %d", trial, l, sim.Now(), cfg.Lanes[l].Horizon)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no block-pointed round had two robots pointing at one edge")
	}
}

// pointsTwice reports whether two robots of snap point at the same edge.
func pointsTwice(r ring.Ring, snap *fsync.Snapshot) bool {
	seen := map[int]bool{}
	for i, v := range snap.Positions {
		e := r.EdgeTowards(v, snap.GlobalDirs[i])
		if seen[e] {
			return true
		}
		seen[e] = true
	}
	return false
}

// TestLockstepBlockPointedSharedEdge pins the smallest shared-edge case:
// two robots facing each other across edge 0 of a 5-ring, under budget
// 2. The edge is removed for two rounds and then must reappear, and the
// lane must match its scalar run throughout.
func TestLockstepBlockPointedSharedEdge(t *testing.T) {
	const n, budget = 5, 2
	place := []fsync.Placement{{Node: 0, Chirality: robot.RightIsCCW}, {Node: 1, Chirality: robot.RightIsCW}}
	var bp BlockPointedLanes
	bp.Reset(n, []int{budget})
	ls, err := fsync.NewLockstep(fsync.LockstepConfig{
		Algorithm: baseline.KeepDirection,
		Lanes:     []fsync.LaneRun{{Placements: place, Horizon: 8}},
		Adversary: &bp,
	})
	if err != nil {
		t.Fatal(err)
	}
	adv := NewBlockPointed(n, budget)
	sim, err := fsync.New(fsync.Config{Algorithm: baseline.KeepDirection, Dynamics: adv, Placements: place})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; !ls.Done(); round++ {
		ls.Step()
		ev := sim.Step()
		if round < budget && ev.Edges.Contains(0) {
			t.Fatalf("round %d: shared pointed edge 0 present within its budget", round)
		}
		if round == budget && !ev.Edges.Contains(0) {
			t.Fatalf("round %d: edge 0 absent beyond its budget", round)
		}
		for i, v := range sim.Snapshot().Positions {
			if got := ls.Position(i, 0); got != v {
				t.Fatalf("round %d robot %d: lockstep node %d, scalar node %d", round, i, got, v)
			}
		}
		for e, want := range adv.runs.run {
			if got := laneCounter(&bp, 0, e); got != want {
				t.Fatalf("round %d edge %d: lane counter %d, scalar %d", round, e, got, want)
			}
		}
	}
}

// presentOnly is an evolving graph without an E_t kernel: the lane
// engine materializes it edge by edge with Present.
type presentOnly struct{ dyngraph.EvolvingGraph }

// TestLockstepCreditsBlockPointedLanesAsWordFast pins the lane telemetry
// of a mixed block: block-pointed lanes run no per-lane Present, so each
// of their lane-rounds counts as word-fast, like a Bernoulli lane's; only
// a graph without a kernel counts as a fallback.
func TestLockstepCreditsBlockPointedLanesAsWordFast(t *testing.T) {
	const n = 8
	reg := telemetry.NewRegistry()
	m := &fsync.Metrics{
		LockstepLaneRounds: reg.Counter("laneRounds"),
		WordFastLanes:      reg.Counter("fast"),
		WordFallbackLanes:  reg.Counter("fallback"),
	}
	place := fsync.EvenPlacements(n, 3)
	lanes := []fsync.LaneRun{
		{Placements: place, Horizon: 30},                                                // block-pointed
		{Placements: place, Horizon: 20},                                                // block-pointed
		{Graph: dynamics.NewBernoulli(n, 0.5, 1), Placements: place, Horizon: 25},       // kernel
		{Graph: presentOnly{dyngraph.NewStatic(n)}, Placements: place[:2], Horizon: 15}, // Present
	}
	var bp BlockPointedLanes
	bp.Reset(n, []int{3, 7, 0, 0})
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Algorithm: core.PEF3Plus, Lanes: lanes, Adversary: &bp, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for !ls.Done() {
		ls.Step()
	}
	ls.Release()
	snap := reg.Snapshot()
	for name, want := range map[string]int64{"laneRounds": 30 + 20 + 25 + 15, "fast": 30 + 20 + 25, "fallback": 15} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLockstepStepAllocFreeWithBlockPointedLanes extends the lane
// engine's allocation guard to a full block that mixes block-pointed and
// Bernoulli lanes: Step must stay at 0 allocs.
func TestLockstepStepAllocFreeWithBlockPointedLanes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, k = 12, 3
	src := prng.NewSource(11)
	var lanes []fsync.LaneRun
	budgets := make([]int, 64)
	for l := range budgets {
		seed := src.Uint64()
		run := fsync.LaneRun{Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)), Horizon: 1 << 20}
		if l%2 == 0 {
			run.Graph = dynamics.NewBernoulli(n, 0.8, seed)
		} else {
			budgets[l] = 1 + l%5
		}
		lanes = append(lanes, run)
	}
	var bp BlockPointedLanes
	bp.Reset(n, budgets)
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Algorithm: core.PEF3Plus, Lanes: lanes, Adversary: &bp})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Release()
	ls.Step()
	if allocs := testing.AllocsPerRun(200, func() { ls.Step() }); allocs != 0 {
		t.Fatalf("lockstep Step with block-pointed lanes allocates %.1f times per round, want 0", allocs)
	}
}
