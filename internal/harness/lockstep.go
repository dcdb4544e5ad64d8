package harness

import (
	"fmt"

	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/robot"
)

// x12Shape is one scenario shape of the lockstep equivalence sweep: an
// algorithm, a ring, a team size, and a per-seed graph family.
type x12Shape struct {
	name  string
	alg   robot.Table
	n, k  int
	graph func(seed uint64) dyngraph.EvolvingGraph
}

// x12Shapes covers each exploration algorithm of Table 1 on a
// representative dynamics: the high-churn Bernoulli ring, a wrapped family
// (eventual missing edge over bounded recurrence), and the two small-ring
// regimes of PEF_2 and PEF_1.
func x12Shapes() []x12Shape {
	return []x12Shape{
		{"pef3+/bernoulli", core.PEF3Plus, 8, 3, func(seed uint64) dyngraph.EvolvingGraph {
			return dynamics.NewBernoulli(8, 0.7, seed)
		}},
		{"pef3+/ev-missing", core.PEF3Plus, 9, 4, func(seed uint64) dyngraph.EvolvingGraph {
			return dyngraph.NewEventualMissing(
				dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(9, 0.5, seed), 4, seed^0x51DE), 4, 24)
		}},
		{"pef2/3-ring", core.PEF2, 3, 2, func(seed uint64) dyngraph.EvolvingGraph {
			return dynamics.NewBernoulli(3, 0.6, seed)
		}},
		{"pef1/2-ring", core.PEF1, 2, 1, func(seed uint64) dyngraph.EvolvingGraph {
			return dynamics.NewBernoulli(2, 0.5, seed)
		}},
	}
}

// runX12 pins the lockstep engine's defining invariant at the harness
// level: a bit-parallel block of seed lanes must reproduce, round by
// round, the exact position trajectories of the scalar simulator runs it
// replaces. Each shape runs a block of independently seeded lanes with
// staggered horizons (exercising lane retirement) against per-lane scalar
// references built from the same seeds.
func runX12(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("shape", "alg", "n", "k", "lanes", "horizon", "lane-rounds", "mismatches", "verdict")
	lanes, horizon := pick(cfg, 32, 8), pick(cfg, 320, 120)
	for si, sh := range x12Shapes() {
		src := prng.NewSource(cfg.Seed ^ uint64(si+1)*0x9E3779B97F4A7C15)
		seeds := make([]uint64, lanes)
		for l := range seeds {
			seeds[l] = src.Uint64()
		}
		// Horizons are staggered so lanes retire at different rounds.
		laneHorizon := func(l int) int { return horizon + l%5 }

		scalars := make([]*fsync.Simulator, lanes)
		for l := range scalars {
			sim, err := fsync.New(fsync.Config{
				Algorithm:  sh.alg,
				Dynamics:   fsync.Oblivious{G: sh.graph(seeds[l])},
				Placements: fsync.RandomPlacements(sh.n, sh.k, prng.NewSource(seeds[l])),
			})
			if err != nil {
				return err
			}
			scalars[l] = sim
		}
		var lcfg fsync.LockstepConfig
		for l := 0; l < lanes; l++ {
			// The lockstep leg gets its own graph instance with the same
			// seed, mirroring how a scalar campaign would build the lane.
			lcfg.Lanes = append(lcfg.Lanes, fsync.LaneRun{
				Table:      sh.alg,
				Graph:      sh.graph(seeds[l]),
				Placements: fsync.RandomPlacements(sh.n, sh.k, prng.NewSource(seeds[l])),
				Horizon:    laneHorizon(l),
			})
		}
		ls, err := fsync.NewLockstep(lcfg)
		if err != nil {
			return err
		}
		compared, mismatches := 0, 0
		for !ls.Done() {
			stepped := ls.Step()
			for l := 0; l < lanes; l++ {
				if stepped&(1<<uint(l)) == 0 {
					continue
				}
				after := scalars[l].Step().After
				compared++
				for i := 0; i < sh.k; i++ {
					if got, want := ls.Position(i, l), after.Positions[i]; got != want {
						mismatches++
						if mismatches <= 3 {
							res.Notes = append(res.Notes, fmt.Sprintf(
								"FAIL %s lane %d robot %d at t=%d: lockstep node %d, scalar node %d",
								sh.name, l, i, ls.Now(), got, want))
						}
						break // one mismatch per lane-round
					}
				}
			}
		}
		ok := mismatches == 0
		if !ok {
			res.Pass = false
		}
		res.Observe("laneRounds", compared)
		res.Table.AddRow(sh.name, sh.alg.Name(), sh.n, sh.k, lanes, horizon, compared, mismatches, verdict(ok))
	}
	res.Notes = append(res.Notes,
		"Every lane of a bit-parallel block reproduces its scalar reference trajectory node-for-node, round-for-round;",
		"'lane-rounds' counts the per-lane rounds compared (staggered horizons make lanes retire at different times).")
	return nil
}
