package harness

import (
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/spec"
)

var x1 = sweep{
	rings:      []int{4, 8, 16, 32, 64},
	quickRings: []int{4, 8, 16},
	header:     []string{"n", "workload", "cover", "maxGap", "verdict"},
	body: func(cfg Config, res *Result, c sweepCase) error {
		n := c.n
		horizon := pick(cfg, 300*n, 80*n)
		for _, sp := range []dynamics.Spec{
			dynamics.StaticSpec(),
			dynamics.BernoulliSpec(0.5),
			dynamics.EventualMissingSpec(0, 32, 0.7, 4),
		} {
			rep, err := explorationRun(randomTeam(core.PEF3Plus{}, 3, obliviousBuild(sp, n), cfg.Seed+uint64(n)), horizon)
			if err != nil {
				return err
			}
			res.ObserveExploration(rep)
			ok := rep.Covered == n
			if !ok {
				res.Pass = false
			}
			res.Table.AddRow(n, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
		return nil
	},
	notes: []string{"Expected shape: cover time grows roughly linearly in n on static rings and by a Δ-factor under dynamics."},
}

func runX2(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("Δ", "cover", "maxGap", "verdict")
	const n = 8
	deltas := pick(cfg, []int{1, 2, 4, 8, 16}, []int{1, 4, 16})
	gaps := make([]int, 0, len(deltas))
	for _, d := range deltas {
		horizon := 400 * d
		build := func(seed uint64) fsync.Dynamics {
			base := dynamics.NewBernoulli(n, 0.05, seed)
			return fsync.Oblivious{G: dynamics.NewBoundedRecurrence(base, d, seed^0xBEEF)}
		}
		rep, err := explorationRun(randomTeam(core.PEF3Plus{}, 3, build, cfg.Seed+uint64(d)), horizon)
		if err != nil {
			return err
		}
		res.ObserveExploration(rep)
		ok := rep.Covered == n && rep.MaxGap <= horizon/2
		if !ok {
			res.Pass = false
		}
		gaps = append(gaps, rep.MaxGap)
		res.Table.AddRow(d, rep.CoverTime, rep.MaxGap, verdict(ok))
	}
	// Shape check: the gap under the loosest recurrence must exceed the
	// gap under the tightest — the predicted monotone trend.
	if len(gaps) >= 2 && gaps[len(gaps)-1] <= gaps[0] {
		res.fail("gap did not grow with Δ — unexpected")
	}
	res.Notes = append(res.Notes, "PEF_3+'s revisit gap scales with the recurrence bound Δ of the dynamics.")
	return nil
}

func runX7(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("k", "workload", "cover", "maxGap", "verdict")
	const n = 16
	workloads := []dynamics.Spec{
		dynamics.BernoulliSpec(0.6),
		dynamics.EventualMissingSpec(3, 40, 0.7, 4),
	}
	for _, k := range pick(cfg, []int{3, 4, 5, 6, 8}, []int{3, 5}) {
		horizon := pick(cfg, 300*n, 80*n)
		for _, sp := range workloads {
			rep, err := explorationRun(randomTeam(core.PEF3Plus{}, k, obliviousBuild(sp, n), cfg.Seed+uint64(k)), horizon)
			if err != nil {
				return err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.fail("FAIL k=%d %s: %s", k, sp.Name, rep)
			}
			res.Table.AddRow(k, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "More robots shorten cover times but are never required beyond three.")
	return nil
}

var x10 = sweep{
	rings:      []int{4, 8, 16, 32},
	quickRings: []int{4, 8},
	header:     []string{"n", "k", "edge missing from", "sentinels stable from", "lag", "verdict"},
	body: func(cfg Config, res *Result, c sweepCase) error {
		n := c.n
		for _, k := range []int{3, 4} {
			if k >= n {
				continue
			}
			horizon := pick(cfg, 400*4, 200*4)
			const from = 24
			edge := n / 2
			base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, cfg.Seed+uint64(n)), 4, cfg.Seed^3)
			g := dyngraph.NewEventualMissing(base, edge, from)
			watch := spec.NewSentinelWatch(g.Ring(), edge, from)
			sim, err := fsync.New(fsync.Config{
				Algorithm:  core.PEF3Plus{},
				Dynamics:   fsync.Oblivious{G: g},
				Placements: fsync.RandomPlacements(n, k, prng.NewSource(cfg.Seed+uint64(n*10+k))),
				Observers:  []fsync.Observer{watch},
			})
			if err != nil {
				return err
			}
			sim.Run(horizon)
			rep := watch.Report()
			// Stabilizing before the edge even vanishes is legal (the
			// robots may coincidentally hold the posts early), so the only
			// requirement is that a stable suffix exists.
			ok := rep.Stabilized
			if !ok {
				res.fail("FAIL n=%d k=%d: %s", n, k, rep)
			}
			lag := -1
			if rep.Stabilized {
				if lag = rep.StableFrom - from; lag < 0 {
					lag = 0
				}
				res.Observe("sentinelLag", lag)
			}
			res.Table.AddRow(n, k, from, rep.StableFrom, lag, verdict(ok))
		}
		return nil
	},
	notes: []string{
		"Lemma 3.7: once an edge is missing forever, one robot ends up posted forever at each extremity, pointing at it.",
		"'lag' is the stabilization delay after the edge disappears; it grows with n (robots must walk to the extremities).",
	},
}
