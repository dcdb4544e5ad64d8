package harness

import (
	"fmt"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/classes"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/robot"
	"pef/internal/ssync"
)

func runX4(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("scheduler", "dynamics", "moves", "covered", "note")
	const n, k = 6, 3
	horizon := pick(cfg, 600, 200)
	nodes := []int{0, 2, 4}
	chirs := []robot.Chirality{robot.RightIsCW, robot.RightIsCW, robot.RightIsCW}

	// SSYNC + freeze adversary: nobody ever moves, yet the realized graph
	// is connected-over-time (each edge present at all instants in which
	// its neighbourhood robot is inactive).
	sim1, err := ssync.New(ssync.Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    ssync.NewFreezeAdversary(n),
		Activation:  ssync.RoundRobin{K: k},
		Nodes:       nodes,
		Chiralities: chirs,
	})
	if err != nil {
		return err
	}
	sim1.Run(horizon)
	res.Table.AddRow("SSYNC round-robin", "freeze adversary", sim1.Moves(), k, "exploration impossible; graph still connected-over-time")
	if sim1.Moves() != 0 {
		res.fail("unexpected: a robot moved under the SSYNC freeze adversary")
	}

	// SSYNC + the constructive pointed-edge adversary of [10]: removes only
	// the edge the activated robot wants to traverse (found by fixed-point
	// search over its deterministic Compute), falling back to its whole
	// neighbourhood only for present-edge chasers.
	pointed := ssync.NewPointedEdgeAdversary(n, core.PEF3Plus, chirs)
	sim3, err := ssync.New(ssync.Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    pointed,
		Activation:  ssync.RoundRobin{K: k},
		Nodes:       nodes,
		Chiralities: chirs,
	})
	if err != nil {
		return err
	}
	sim3.Run(horizon)
	res.Table.AddRow("SSYNC round-robin", "pointed-edge adversary", sim3.Moves(), k,
		fmt.Sprintf("%d single-edge removals, %d fallbacks", pointed.SingleRemovals(), pointed.BothRemovals()))
	if sim3.Moves() != 0 {
		res.fail("unexpected: a robot moved under the SSYNC pointed-edge adversary")
	}

	// FSYNC with the same freeze idea is illegal: blocking every robot's
	// neighbourhood forever makes those edges eventually missing around
	// static robots and disconnects the eventual underlying graph. The
	// budgeted variant (edges must reappear) lets PEF_3+ explore.
	rep, err := explorationRun(fsync.Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   adversary.NewBlockBothSides(n, 3),
		Placements: fsync.EvenPlacements(n, k),
	}, horizon)
	if err != nil {
		return err
	}
	res.Table.AddRow("FSYNC", "block-both-sides (budget 3)", "-", rep.Covered, "edges must recur; exploration succeeds")
	if rep.Covered != n {
		res.fail("unexpected: FSYNC control failed to explore")
	}
	res.Notes = append(res.Notes,
		"Reproduces the Di Luna et al. argument that exploration is impossible in SSYNC, motivating the paper's FSYNC model.")
	return nil
}

func runX8(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("source", "graphs", "prefixes", "growing", "executions agree")
	horizon := pick(cfg, 240, 100)
	alg := baseline.BounceOnMissing
	for _, s := range []struct {
		source     string
		adv        fsync.Dynamics
		placements []fsync.Placement
	}{
		{"Theorem 5.1 schedule", adversary.NewOneRobotConfinement(6, 0, 0), team(robot.RightIsCW)},
		{"Theorem 4.1 schedule", adversary.NewTwoRobotConfinement(6, 0, 0, 1), team(robot.RightIsCW, robot.RightIsCW)},
	} {
		_, sim, _, err := confinementRun(alg, s.adv, s.placements, horizon)
		if err != nil {
			return err
		}
		seq, conv, err := convergenceCheck(alg, s.placements, sim.RecordedGraph(), 6, horizon)
		if err != nil {
			return err
		}
		res.Table.AddRow(s.source, seq.Len(), fmt.Sprintf("%v", seq.PrefixLengths()), seq.GrowingPrefixes(), conv.OK)
		if !seq.GrowingPrefixes() || !conv.OK {
			res.Pass = false
		}
	}
	res.Notes = append(res.Notes,
		"Graph sequences reconstructed from the realized adversary schedules have strictly growing common prefixes,",
		"and executions on them agree with the execution on the limit graph for at least the graph prefix — the [5] theorem.")
	return nil
}

func runX9(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("generator", "always-conn", "T-interval", "period", "Δ", "recurrent", "conn-over-time", "hierarchy")
	horizon := pick(cfg, 360, 160)
	type gen struct {
		name string
		g    dyngraph.EvolvingGraph
		// wantCOT is the paper-class membership the generator promises.
		wantCOT bool
	}
	gens := []gen{
		{"static", dyngraph.NewStatic(6), true},
		{"bernoulli-0.6", dynamics.NewBernoulli(6, 0.6, cfg.Seed), true},
		{"t-interval-3", dynamics.NewTInterval(6, 3, cfg.Seed), true},
		{"roving-2", dynamics.NewRovingMissing(6, 2), true},
		{"bounded-rec-4", dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(6, 0.2, cfg.Seed), 4, cfg.Seed^1), true},
		{"periodic", mustPeriodic(6), true},
		{"eventual-missing", dyngraph.NewEventualMissing(
			dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(6, 0.7, cfg.Seed), 4, cfg.Seed^2), 0, 40), true},
		{"split-ring", dyngraph.NewWithout(dyngraph.NewStatic(6),
			dyngraph.Removal{Edge: 0, During: []dyngraph.Interval{{Start: 0, End: 1 << 30}}},
			dyngraph.Removal{Edge: 3, During: []dyngraph.Interval{{Start: 0, End: 1 << 30}}}), false},
	}
	for _, g := range gens {
		m := classes.Classify(g.g, horizon, 6, 24)
		if !m.RespectsHierarchy() {
			res.fail("FAIL %s violates the class hierarchy: %+v", g.name, m)
		}
		if m.ConnectedOverTime != g.wantCOT {
			res.fail("FAIL %s: connected-over-time=%t, generator promises %t", g.name, m.ConnectedOverTime, g.wantCOT)
		}
		res.Table.AddRow(g.name, m.AlwaysConnected, m.TInterval, m.Period, m.RecurrenceBound,
			m.Recurrent, m.ConnectedOverTime, verdict(m.RespectsHierarchy()))
	}
	res.Notes = append(res.Notes,
		"Places the paper's connected-over-time class at the bottom of the Casteigts et al. hierarchy;",
		"the split ring (two edges never appear) is the canonical non-member every checker must reject.")
	return nil
}

// mustPeriodic builds the taxonomy demo timetable; patterns are valid by
// construction.
func mustPeriodic(n int) dyngraph.EvolvingGraph {
	patterns := make([][]bool, n)
	for e := range patterns {
		p := make([]bool, 4)
		p[e%4] = true
		p[(e+2)%4] = true
		patterns[e] = p
	}
	g, err := dynamics.NewPeriodic(n, patterns)
	if err != nil {
		panic(err)
	}
	return g
}
