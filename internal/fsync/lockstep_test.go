package fsync

import (
	"testing"

	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/prng"
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
// invariant.
func TestLockstepMatchesScalarTrajectories(t *testing.T) {
	algs := []robot.LaneAlgorithm{core.PEF3Plus{}, core.PEF2{}, core.PEF1{}, core.NoRule2{}, core.NoRule3{}}
	src := prng.NewSource(0xBEEF)
	for trial := 0; trial < 30; trial++ {
		n := 2 + src.Intn(15)
		k := 1 + src.Intn(min(5, n-1))
		alg := algs[src.Intn(len(algs))]
		lanes := 1 + src.Intn(64)
		horizon := 20 + src.Intn(60)

		cfg := LockstepConfig{Algorithm: alg}
		type scalarRun struct {
			sim     *Simulator
			horizon int
		}
		var scalars []scalarRun
		for l := 0; l < lanes; l++ {
			seed := src.Uint64()
			g := buildLaneGraph(n, l, seed)
			place := RandomPlacements(n, k, prng.NewSource(seed))
			h := horizon + l%7 // staggered horizons exercise retirement
			cfg.Lanes = append(cfg.Lanes, LaneRun{Graph: g, Placements: place, Horizon: h})

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
			scalars = append(scalars, scalarRun{sim, h})
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
				for i := 0; i < k; i++ {
					if got, want := ls.Position(i, l), sc.sim.Snapshot().Positions[i]; got != want {
						t.Fatalf("trial %d (n=%d k=%d alg=%s): lane %d robot %d at t=%d: lockstep node %d, scalar node %d",
							trial, n, k, alg.Name(), l, i, ls.Now(), got, want)
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
// occupancy words against the one-hot positions.
func TestLockstepOccupancyMatchesPositions(t *testing.T) {
	src := prng.NewSource(7)
	var lanesCfg []LaneRun
	const n, k, lanes = 9, 3, 17
	for l := 0; l < lanes; l++ {
		seed := src.Uint64()
		lanesCfg = append(lanesCfg, LaneRun{
			Graph:      dynamics.NewBernoulli(n, 0.6, seed),
			Placements: RandomPlacements(n, k, prng.NewSource(seed)),
			Horizon:    25,
		})
	}
	ls, err := NewLockstep(LockstepConfig{Algorithm: core.PEF3Plus{}, Lanes: lanesCfg})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		occ := ls.Occupancy()
		for v := 0; v < n; v++ {
			for l := 0; l < lanes; l++ {
				want := false
				for i := 0; i < k; i++ {
					if ls.Position(i, l) == v {
						want = true
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

// TestLockstepStepAllocFree pins the hot path: once configured, stepping
// a lockstep block must not allocate (the engine is pure word arithmetic
// over preallocated buffers) — for stateless word graphs and for the
// streaming Markov chain, whose window slots are reused in place.
func TestLockstepStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, k = 12, 3
	for _, tc := range []struct {
		name  string
		graph func(seed uint64) dyngraph.EvolvingGraph
	}{
		{"bernoulli", func(seed uint64) dyngraph.EvolvingGraph { return dynamics.NewBernoulli(n, 0.8, seed) }},
		{"markov-stream", func(seed uint64) dyngraph.EvolvingGraph {
			m, err := dynamics.NewMarkovStream(n, 0.4, 0.25, seed, 8)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := prng.NewSource(11)
			var lanesCfg []LaneRun
			for l := 0; l < 64; l++ {
				seed := src.Uint64()
				lanesCfg = append(lanesCfg, LaneRun{
					Graph:      tc.graph(seed),
					Placements: RandomPlacements(n, k, prng.NewSource(seed)),
					Horizon:    1 << 20,
				})
			}
			ls, err := AcquireLockstep(LockstepConfig{Algorithm: core.PEF3Plus{}, Lanes: lanesCfg})
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
