package fsync

import (
	"strings"
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
)

// buildLaneGraph returns a per-lane evolving graph of varied families.
func buildLaneGraph(n int, kind int, seed uint64) dyngraph.EvolvingGraph {
	switch kind % 4 {
	case 0:
		return dynamics.NewBernoulli(n, 0.7, seed)
	case 1:
		return dyngraph.NewEventualMissing(
			dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.5, seed), 4, seed^0x51DE),
			int(seed%uint64(n)), 8)
	case 2:
		return dynamics.NewTInterval(n, 3, seed)
	default:
		return dyngraph.NewStatic(n)
	}
}

// TestLockstepMatchesScalarTrajectories runs mixed-family lane blocks and
// checks every lane's position trajectory round by round against a scalar
// Simulator configured identically — the engine-level byte-identity
// invariant. Every third trial draws a team size per lane, so the block
// carries teams narrower than its widest one; three trials in four draw a
// rule table per lane from all nine tables, and the fourth runs one table
// on every lane.
func TestLockstepMatchesScalarTrajectories(t *testing.T) {
	algs := []robot.Table{
		core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3,
		baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
	}
	src := prng.NewSource(0xBEEF)
	for trial := 0; trial < 36; trial++ {
		n := 2 + src.Intn(15)
		k := 1 + src.Intn(min(5, n-1))
		lanes := 1 + src.Intn(64)
		horizon := 20 + src.Intn(60)
		mixed := trial%3 == 0
		oneTable := trial%4 == 3

		var cfg LockstepConfig
		type scalarRun struct {
			sim     *Simulator
			horizon int
			k       int
			alg     robot.Table
		}
		var scalars []scalarRun
		for l := 0; l < lanes; l++ {
			seed := src.Uint64()
			k := k
			if mixed {
				k = 1 + src.Intn(min(5, n-1))
			}
			alg := algs[trial%len(algs)]
			if !oneTable {
				alg = algs[src.Intn(len(algs))]
			}
			g := buildLaneGraph(n, l, seed)
			place := RandomPlacements(n, k, prng.NewSource(seed))
			h := horizon + l%7 // staggered horizons exercise retirement
			cfg.Lanes = append(cfg.Lanes, LaneRun{Table: alg, Graph: g, Placements: place, Horizon: h})

			// The scalar reference needs its own graph instance with the
			// same seed so stateful schedules match.
			sim, err := New(Config{
				Algorithm:  alg,
				Dynamics:   Oblivious{G: buildLaneGraph(n, l, seed)},
				Placements: RandomPlacements(n, k, prng.NewSource(seed)),
			})
			if err != nil {
				t.Fatalf("trial %d lane %d: scalar New: %v", trial, l, err)
			}
			scalars = append(scalars, scalarRun{sim, h, k, alg})
		}
		ls, err := NewLockstep(cfg)
		if err != nil {
			t.Fatalf("trial %d: NewLockstep: %v", trial, err)
		}
		for !ls.Done() {
			stepped := ls.Step()
			for l, sc := range scalars {
				if stepped&(1<<uint(l)) == 0 {
					continue
				}
				sc.sim.Step()
				for i := 0; i < sc.k; i++ {
					if got, want := ls.Position(i, l), sc.sim.Snapshot().Positions[i]; got != want {
						t.Fatalf("trial %d (n=%d k=%d of %d alg=%s): lane %d robot %d at t=%d: lockstep node %d, scalar node %d",
							trial, n, sc.k, ls.Robots(), sc.alg.Name(), l, i, ls.Now(), got, want)
					}
				}
			}
		}
		for l, sc := range scalars {
			if sc.sim.Now() != cfg.Lanes[l].Horizon {
				t.Fatalf("trial %d lane %d: scalar ran %d rounds, want %d", trial, l, sc.sim.Now(), cfg.Lanes[l].Horizon)
			}
		}
	}
}

// TestLockstepOccupancyMatchesPositions checks the tracker-facing
// occupancy words against the one-hot positions, on a block whose lanes
// field one to five robots: an absent robot's row must stay empty.
func TestLockstepOccupancyMatchesPositions(t *testing.T) {
	src := prng.NewSource(7)
	var lanesCfg []LaneRun
	const n, lanes = 9, 17
	for l := 0; l < lanes; l++ {
		seed := src.Uint64()
		lanesCfg = append(lanesCfg, LaneRun{
			Table:      core.PEF3Plus,
			Graph:      dynamics.NewBernoulli(n, 0.6, seed),
			Placements: RandomPlacements(n, 1+l%5, prng.NewSource(seed)),
			Horizon:    25,
		})
	}
	ls, err := NewLockstep(LockstepConfig{Lanes: lanesCfg})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		occ := ls.Occupancy()
		for v := 0; v < n; v++ {
			for l := 0; l < lanes; l++ {
				want := false
				for i := range lanesCfg[l].Placements {
					if ls.Position(i, l) == v {
						want = true
					}
				}
				for i := len(lanesCfg[l].Placements); i < ls.Robots(); i++ {
					if ls.Rows()[i*n+v]&(1<<uint(l)) != 0 {
						t.Fatalf("t=%d lane %d places %d robots, yet robot %d has a bit on node %d", ls.Now(), l, len(lanesCfg[l].Placements), i, v)
					}
				}
				if got := occ[v]&(1<<uint(l)) != 0; got != want {
					t.Fatalf("t=%d node %d lane %d: occupancy bit %v, want %v", ls.Now(), v, l, got, want)
				}
			}
		}
	}
	check()
	for !ls.Done() {
		ls.Step()
		check()
	}
}

// TestLockstepResetRejectsBadLanes checks the per-lane shape checks of
// Reset: lanes may field different team sizes and tables, but each needs
// 1 <= k < n robots, the block's ring, a graph or the block's adversary,
// and a rule table.
func TestLockstepResetRejectsBadLanes(t *testing.T) {
	// lane places k robots on nodes 0..k-1 of a static n-ring.
	lane := func(n, k int) LaneRun {
		ps := make([]Placement, k)
		for i := range ps {
			ps[i] = Placement{Node: i, Chirality: robot.RightIsCW}
		}
		return LaneRun{Table: core.PEF3Plus, Graph: dyngraph.NewStatic(n), Placements: ps, Horizon: 5}
	}
	withTable := func(l LaneRun, table robot.Table) LaneRun {
		l.Table = table
		return l
	}
	for _, tc := range []struct {
		name  string
		lanes []LaneRun
		want  string // error substring; "" means Reset accepts the block
	}{
		{"mixed teams", []LaneRun{lane(6, 2), lane(6, 5), lane(6, 1)}, ""},
		{"mixed tables", []LaneRun{lane(6, 2), withTable(lane(6, 3), core.PEF2), withTable(lane(6, 1), baseline.Oscillator)}, ""},
		{"zero table", []LaneRun{lane(6, 2), withTable(lane(6, 2), robot.Table{})}, "lane 1 has the zero rule table"},
		{"empty lane", []LaneRun{lane(6, 3), lane(6, 0)}, "lane 1 places 0 robots on 6 nodes"},
		{"empty lane 0", []LaneRun{lane(6, 0), lane(6, 3)}, "lane 0 places 0 robots on 6 nodes"},
		{"k = n", []LaneRun{lane(6, 2), lane(6, 3), lane(6, 6)}, "lane 2 places 6 robots on 6 nodes"},
		{"ring mismatch", []LaneRun{lane(6, 2), lane(7, 2)}, "lane 1 ring"},
		{"wider lane on a smaller ring", []LaneRun{lane(6, 2), lane(5, 4)}, "lane 1 ring"},
		{"no graph in lane 0", []LaneRun{{Table: core.PEF3Plus, Placements: lane(6, 2).Placements, Horizon: 5}, lane(6, 2)}, "lane 0 has neither a graph nor an adversary"},
		{"no graph in lane 1", []LaneRun{lane(6, 2), {Table: core.PEF3Plus, Placements: lane(6, 2).Placements, Horizon: 5}}, "lane 1 has neither a graph nor an adversary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls, err := NewLockstep(LockstepConfig{Lanes: tc.lanes})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Reset rejected a valid block: %v", err)
			case tc.want == "":
				widest := 0
				for _, l := range tc.lanes {
					widest = max(widest, len(l.Placements))
				}
				if ls.Robots() != widest {
					t.Fatalf("Robots() = %d, want the widest team %d", ls.Robots(), widest)
				}
			case err == nil:
				t.Fatalf("Reset accepted the block, want an error containing %q", tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Reset error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// ringPanics is a lane graph whose Ring panics, so Reset panics on it.
type ringPanics struct{ dyngraph.EvolvingGraph }

func (ringPanics) Ring() ring.Ring { panic("ring unknown") }

// TestAcquireLockstepRepanicsResetPanic checks that a panic inside Reset
// reaches the caller unchanged, and that the lane engine still serves the
// next block afterwards.
func TestAcquireLockstepRepanicsResetPanic(t *testing.T) {
	place := EvenPlacements(6, 2)
	func() {
		defer func() {
			if r := recover(); r != "ring unknown" {
				t.Fatalf("recovered %v, want the Reset panic", r)
			}
		}()
		AcquireLockstep(LockstepConfig{Lanes: []LaneRun{{Table: core.PEF3Plus, Graph: ringPanics{}, Placements: place, Horizon: 3}}})
		t.Fatal("AcquireLockstep returned after a Reset panic")
	}()
	ls, err := AcquireLockstep(LockstepConfig{Lanes: []LaneRun{{Table: core.PEF3Plus, Graph: dyngraph.NewStatic(6), Placements: place, Horizon: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	for !ls.Done() {
		ls.Step()
	}
	if ls.Now() != 3 {
		t.Fatalf("ran %d rounds, want 3", ls.Now())
	}
	ls.Release()
}

// staticAdversary is a test LaneAdversary that keeps every edge of its
// lanes present.
type staticAdversary struct{ r ring.Ring }

func (a staticAdversary) Ring() ring.Ring { return a.r }

func (a staticAdversary) EdgeColumns(_ *LockstepSimulator, mask uint64, cols []uint64) {
	for e := range cols {
		cols[e] |= mask
	}
}

// TestLockstepStepAllocFree pins the hot path: once configured, stepping
// a lockstep block must not allocate (the engine is pure word arithmetic
// over preallocated buffers) — for stateless word graphs, for the
// streaming Markov chain, whose one presence set is advanced in place,
// for a block whose odd lanes a LaneAdversary drives, and for a block
// whose lanes run all nine rule tables.
func TestLockstepStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, k = 12, 3
	tables := []robot.Table{core.PEF3Plus}
	all := []robot.Table{
		core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3,
		baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
	}
	for _, tc := range []struct {
		name      string
		graph     func(seed uint64) dyngraph.EvolvingGraph
		adversary LaneAdversary
		tables    []robot.Table
	}{
		{"bernoulli", func(seed uint64) dyngraph.EvolvingGraph { return dynamics.NewBernoulli(n, 0.8, seed) }, nil, tables},
		{"markov-stream", func(seed uint64) dyngraph.EvolvingGraph {
			m, err := dynamics.NewMarkovStream(n, 0.4, 0.25, seed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, nil, tables},
		{"adversary", func(seed uint64) dyngraph.EvolvingGraph { return dynamics.NewBernoulli(n, 0.8, seed) }, staticAdversary{ring.New(n)}, tables},
		{"mixed-tables", func(seed uint64) dyngraph.EvolvingGraph { return dynamics.NewBernoulli(n, 0.8, seed) }, nil, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := prng.NewSource(11)
			var lanesCfg []LaneRun
			for l := 0; l < 64; l++ {
				seed := src.Uint64()
				run := LaneRun{Table: tc.tables[l%len(tc.tables)], Placements: RandomPlacements(n, k, prng.NewSource(seed)), Horizon: 1 << 20}
				if tc.adversary == nil || l%2 == 0 {
					run.Graph = tc.graph(seed)
				}
				lanesCfg = append(lanesCfg, run)
			}
			ls, err := AcquireLockstep(LockstepConfig{Lanes: lanesCfg, Adversary: tc.adversary})
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Release()
			ls.Step() // warm the materialization buffers
			if allocs := testing.AllocsPerRun(200, func() { ls.Step() }); allocs != 0 {
				t.Fatalf("lockstep Step allocates %.1f times per round, want 0", allocs)
			}
		})
	}
}
