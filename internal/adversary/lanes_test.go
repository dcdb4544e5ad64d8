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
func laneCounter(b *Lanes, l, e int) int {
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
		var bp Lanes
		cfg := fsync.LockstepConfig{Adversary: &bp}
		budgets := make([]int, lanes)
		dyns := make([]fsync.Dynamics, lanes)
		sims := make([]*fsync.Simulator, lanes)
		advs := make([]*BlockPointed, lanes)
		for l := range lanes {
			seed := src.Uint64()
			k := 1 + src.Intn(min(5, n-1))
			run := fsync.LaneRun{Table: alg, Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)), Horizon: 10 + src.Intn(90)}
			var dyn fsync.Dynamics
			if l%3 == 2 {
				run.Graph = dynamics.NewBernoulli(n, 0.6, seed)
				dyn = fsync.Oblivious{G: dynamics.NewBernoulli(n, 0.6, seed)}
			} else {
				budgets[l] = 1 + (l-l/3)%9
				advs[l] = NewBlockPointed(n, budgets[l])
				dyn, dyns[l] = advs[l], advs[l]
			}
			cfg.Lanes = append(cfg.Lanes, run)
			sim, err := fsync.New(fsync.Config{Algorithm: alg, Dynamics: dyn, Placements: run.Placements})
			if err != nil {
				t.Fatal(err)
			}
			sims[l] = sim
		}
		bp.Reset(n, dyns)
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
	var bp Lanes
	bp.Reset(n, []fsync.Dynamics{NewBlockPointed(n, budget)})
	ls, err := fsync.NewLockstep(fsync.LockstepConfig{
		Lanes:     []fsync.LaneRun{{Table: baseline.KeepDirection, Placements: place, Horizon: 8}},
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
	for l := range lanes {
		lanes[l].Table = core.PEF3Plus
	}
	var bp Lanes
	bp.Reset(n, []fsync.Dynamics{NewBlockPointed(n, 3), NewBlockPointed(n, 7), nil, nil})
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Lanes: lanes, Adversary: &bp, Metrics: m})
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
	dyns := make([]fsync.Dynamics, 64)
	for l := range dyns {
		seed := src.Uint64()
		run := fsync.LaneRun{Table: core.PEF3Plus, Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)), Horizon: 1 << 20}
		if l%2 == 0 {
			run.Graph = dynamics.NewBernoulli(n, 0.8, seed)
		} else {
			dyns[l] = NewBlockPointed(n, 1+l%5)
		}
		lanes = append(lanes, run)
	}
	var bp Lanes
	bp.Reset(n, dyns)
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Lanes: lanes, Adversary: &bp})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Release()
	ls.Step()
	if allocs := testing.AllocsPerRun(200, func() { ls.Step() }); allocs != 0 {
		t.Fatalf("lockstep Step with block-pointed lanes allocates %.1f times per round, want 0", allocs)
	}
}

// recordColumns wraps the lane adversary and keeps a copy of the edge
// columns of the last round it drove, at instant at, so a test can read
// the E_t every lane saw.
type recordColumns struct {
	*Lanes
	cols []uint64
	at   int
}

func (r *recordColumns) EdgeColumns(ls *fsync.LockstepSimulator, mask uint64, cols []uint64) {
	r.Lanes.EdgeColumns(ls, mask, cols)
	r.cols, r.at = append(r.cols[:0], cols...), ls.Now()
}

// lanePhase reads lane l's confine-two phase out of its two bit planes.
func lanePhase(b *Lanes, l int) int {
	return int(b.phase[0]>>uint(l)&1) | int(b.phase[1]>>uint(l)&1)<<1
}

// TestLockstepConfinementMatchesScalar runs lane blocks that mix
// confine-one, confine-two, block-pointed and Bernoulli lanes, each lane
// under one of the nine rule tables, on rings 3–20 with staggered
// horizons. Every round it checks every lane's positions, pointed
// directions and E_t, and every confine-two lane's phase, against the
// scalar Simulator under the scalar adversary.
func TestLockstepConfinementMatchesScalar(t *testing.T) {
	tables := []robot.Table{
		core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3,
		baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
	}
	chir := []robot.Chirality{robot.RightIsCW, robot.RightIsCCW}
	src := prng.NewSource(0xC0F1)
	phases := 0 // bit p: some confine-two lane was seen in phase p
	for trial := 0; trial < 36; trial++ {
		n := 3 + trial%18
		lanes := 32 + src.Intn(33)
		var bp Lanes
		rec := &recordColumns{Lanes: &bp}
		cfg := fsync.LockstepConfig{Adversary: rec}
		dyns := make([]fsync.Dynamics, lanes)
		sims := make([]*fsync.Simulator, lanes)
		twos := make([]*TwoRobotConfinement, lanes)
		for l := range lanes {
			seed := src.Uint64()
			table := tables[src.Intn(len(tables))]
			run := fsync.LaneRun{Table: table, Horizon: 10 + src.Intn(150)}
			var dyn fsync.Dynamics
			switch kind := l % 4; {
			case kind == 0 || kind == 1 && n < 4:
				run.Placements = []fsync.Placement{{Node: 0, Chirality: chir[src.Intn(2)]}}
				dyn = NewOneRobotConfinement(n, 0, 0)
			case kind == 1:
				run.Placements = []fsync.Placement{{Node: 0, Chirality: chir[src.Intn(2)]}, {Node: 1, Chirality: chir[src.Intn(2)]}}
				twos[l] = NewTwoRobotConfinement(n, 0, 0, 1)
				dyn = twos[l]
			case kind == 2:
				run.Placements = fsync.RandomPlacements(n, 1+src.Intn(min(5, n-1)), prng.NewSource(seed))
				dyn = NewBlockPointed(n, 1+src.Intn(4))
			default:
				run.Placements = fsync.RandomPlacements(n, 1+src.Intn(min(5, n-1)), prng.NewSource(seed))
				run.Graph = dynamics.NewBernoulli(n, 0.6, seed)
				dyn = fsync.Oblivious{G: dynamics.NewBernoulli(n, 0.6, seed)}
			}
			if run.Graph == nil {
				if !LaneForm(dyn, n) {
					t.Fatalf("trial %d lane %d: fresh %T has no lane form", trial, l, dyn)
				}
				dyns[l] = dyn
			}
			cfg.Lanes = append(cfg.Lanes, run)
			sim, err := fsync.New(fsync.Config{Algorithm: table, Dynamics: dyn, Placements: run.Placements})
			if err != nil {
				t.Fatal(err)
			}
			sims[l] = sim
		}
		bp.Reset(n, dyns)
		ls, err := fsync.NewLockstep(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for !ls.Done() {
			stepped := ls.Step()
			for l, sim := range sims {
				bit := uint64(1) << uint(l)
				if stepped&bit == 0 {
					continue
				}
				ev := sim.Step()
				for e := 0; e < n && rec.at == ev.T; e++ {
					if got := rec.cols[e]&bit != 0; got != ev.Edges.Contains(e) {
						t.Fatalf("trial %d (n=%d) lane %d (%T, %s) edge %d at t=%d: lane present %v, scalar %v",
							trial, n, l, dyns[l], cfg.Lanes[l].Table.Name(), e, ev.T, got, !got)
					}
				}
				for i, v := range ev.After.Positions {
					if got := ls.Position(i, l); got != v {
						t.Fatalf("trial %d (n=%d) lane %d (%T, %s) robot %d at t=%d: lockstep node %d, scalar node %d",
							trial, n, l, dyns[l], cfg.Lanes[l].Table.Name(), i, ls.Now(), got, v)
					}
					if got := ls.PointsCW(i)&bit != 0; got != (ev.After.GlobalDirs[i] == ring.CW) {
						t.Fatalf("trial %d lane %d robot %d at t=%d: lockstep points CW %v, scalar %v",
							trial, l, i, ls.Now(), got, ev.After.GlobalDirs[i])
					}
				}
				if twos[l] != nil {
					if got, want := lanePhase(&bp, l), twos[l].Phase(); got != want {
						t.Fatalf("trial %d (n=%d) lane %d (%s) at t=%d: lane phase %d, scalar %d",
							trial, n, l, cfg.Lanes[l].Table.Name(), ls.Now(), got, want)
					}
					phases |= 1 << twos[l].Phase()
				}
			}
		}
	}
	if phases != 0b1111 {
		t.Fatalf("confine-two phases seen %04b, want all four", phases)
	}
}

// TestLaneConfinementPanicsOnEscape places a confine-one victim and a
// confine-two robot outside their nodes: the lane form must panic, as the
// scalar adversaries do, so that a lane block falls back to scalar runs.
func TestLaneConfinementPanicsOnEscape(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name  string
		dyn   fsync.Dynamics
		place []fsync.Placement
	}{
		{"confine-one", NewOneRobotConfinement(n, 0, 0), []fsync.Placement{{Node: 2, Chirality: robot.RightIsCW}}},
		{"confine-two", NewTwoRobotConfinement(n, 0, 0, 1), []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}, {Node: 4, Chirality: robot.RightIsCW}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Lanes
			b.Reset(n, []fsync.Dynamics{tc.dyn})
			ls, err := fsync.NewLockstep(fsync.LockstepConfig{
				Lanes:     []fsync.LaneRun{{Table: core.PEF3Plus, Placements: tc.place, Horizon: 4}},
				Adversary: &b,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("the lane form let a victim escape")
				}
			}()
			ls.Step()
		})
	}
}

// TestLaneFormAdmitsFreshRegistryInstances pins which adversaries ride
// lanes: fresh instances built the way the scenario registry builds them,
// on the block's ring. Another start node, another watched robot, a used
// instance or another ring keeps the scalar form. A confine-one instance
// carries no state between rounds, so it is never "used".
func TestLaneFormAdmitsFreshRegistryInstances(t *testing.T) {
	const n = 7
	used := NewTwoRobotConfinement(n, 0, 0, 1)
	used.phase = 1
	for _, tc := range []struct {
		name string
		dyn  fsync.Dynamics
		want bool
	}{
		{"block-pointed", NewBlockPointed(n, 2), true},
		{"confine-one", NewOneRobotConfinement(n, 0, 0), true},
		{"confine-two", NewTwoRobotConfinement(n, 0, 0, 1), true},
		{"confine-one other ring", NewOneRobotConfinement(n+1, 0, 0), false},
		{"confine-one at u=2", NewOneRobotConfinement(n, 2, 0), false},
		{"confine-one robot 1", NewOneRobotConfinement(n, 0, 1), false},
		{"confine-two robots 1, 0", NewTwoRobotConfinement(n, 0, 1, 0), false},
		{"confine-two at u=3", NewTwoRobotConfinement(n, 3, 0, 1), false},
		{"confine-two used", used, false},
		{"block-both-sides", NewBlockBothSides(n, 2), false},
	} {
		if got := LaneForm(tc.dyn, n); got != tc.want {
			t.Errorf("%s: LaneForm = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLaneAdversaryAllocFree guards the mixed lane adversary: a block of
// confine-one, confine-two, block-pointed and Bernoulli lanes steps with 0
// allocs, and a repeated Reset reuses the planes of the last block.
func TestLaneAdversaryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 12
	src := prng.NewSource(13)
	var lanes []fsync.LaneRun
	dyns := make([]fsync.Dynamics, 64)
	for l := range dyns {
		seed := src.Uint64()
		run := fsync.LaneRun{Table: core.PEF3Plus, Horizon: 1 << 20}
		switch l % 4 {
		case 0:
			run.Table, run.Placements = baseline.BounceOnMissing, []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}
			dyns[l] = NewOneRobotConfinement(n, 0, 0)
		case 1:
			run.Table, run.Placements = core.PEF2, []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}, {Node: 1, Chirality: robot.RightIsCCW}}
			dyns[l] = NewTwoRobotConfinement(n, 0, 0, 1)
		case 2:
			run.Placements = fsync.RandomPlacements(n, 3, prng.NewSource(seed))
			dyns[l] = NewBlockPointed(n, 1+l%5)
		default:
			run.Placements = fsync.RandomPlacements(n, 3, prng.NewSource(seed))
			run.Graph = dynamics.NewBernoulli(n, 0.8, seed)
		}
		lanes = append(lanes, run)
	}
	var b Lanes
	b.Reset(n, dyns)
	if allocs := testing.AllocsPerRun(100, func() { b.Reset(n, dyns) }); allocs != 0 {
		t.Fatalf("a repeated lane adversary Reset allocates %.1f times, want 0", allocs)
	}
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Lanes: lanes, Adversary: &b})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Release()
	ls.Step()
	if allocs := testing.AllocsPerRun(200, func() { ls.Step() }); allocs != 0 {
		t.Fatalf("lockstep Step with confinement lanes allocates %.1f times per round, want 0", allocs)
	}
}

// TestLockstepLassoAllocFree runs whole lasso blocks back to back on one
// simulator: confine-one, confine-two and block-pointed lanes that
// retire at their lasso beside Bernoulli lanes that run to the horizon.
// The state saves, compares and early retirements allocate nothing.
func TestLockstepLassoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 10
	src := prng.NewSource(29)
	var lanes []fsync.LaneRun
	dyns := make([]fsync.Dynamics, 64)
	for l := range dyns {
		seed := src.Uint64()
		run := fsync.LaneRun{Table: core.PEF3Plus, Horizon: 64 * n}
		switch l % 4 {
		case 0:
			run.Table, run.Placements = baseline.BounceOnMissing, []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}
		case 1:
			run.Table, run.Placements = core.PEF2, []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}, {Node: 1, Chirality: robot.RightIsCCW}}
		case 2:
			run.Placements = fsync.RandomPlacements(n, 3, prng.NewSource(seed))
		default:
			run.Placements = fsync.RandomPlacements(n, 3, prng.NewSource(seed))
			run.Graph, run.Horizon = dynamics.NewBernoulli(n, 0.8, seed), 64
		}
		lanes = append(lanes, run)
	}
	fresh := func() {
		for l := range dyns {
			switch l % 4 {
			case 0:
				dyns[l] = NewOneRobotConfinement(n, 0, 0)
			case 1:
				dyns[l] = NewTwoRobotConfinement(n, 0, 0, 1)
			case 2:
				dyns[l] = NewBlockPointed(n, 1+l%5)
			}
		}
	}
	var b Lanes
	fresh()
	b.Reset(n, dyns)
	reg := telemetry.NewRegistry()
	m := &fsync.Metrics{LassoLanes: reg.Counter("lasso")}
	cfg := fsync.LockstepConfig{Lanes: lanes, Adversary: &b, Lasso: true, Metrics: m}
	ls, err := fsync.AcquireLockstep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Release()
	fresh() // the constructors allocate; the block below must not
	if allocs := testing.AllocsPerRun(20, func() {
		b.Reset(n, dyns)
		if err := ls.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for !ls.Done() {
			ls.Step()
		}
	}); allocs != 0 {
		t.Fatalf("a lasso block allocates %.1f times per run, want 0", allocs)
	}
	if ls.Now() >= 64*n {
		t.Fatalf("the block ran %d rounds: its adversary lanes did not retire at their lasso", ls.Now())
	}
	if err := ls.Reset(cfg); err != nil { // credits the last run
		t.Fatal(err)
	}
	if got := m.LassoLanes.Value(); got != 21*48 {
		t.Fatalf("%d adversary lanes retired at their lasso over 21 runs, want all 48 each time", got)
	}
}
