package harness

import (
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/robot"
)

func runX3(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("algorithm", "workload", "covered", "maxGap", "explores")
	const n, k = 8, 3
	horizon := pick(cfg, 1600, 600)
	algs := []robot.Algorithm{core.PEF3Plus{}, core.NoRule3{}, core.NoRule2{}}
	// The eventual-missing-edge workload is the separator: Rule 1 alone
	// (no-rule3) parks every robot at one extremity forever.
	workloads := []dynamics.Spec{
		dynamics.StaticSpec(),
		dynamics.EventualMissingSpec(0, 20, 0.9, 4),
	}
	explored := map[string]bool{}
	for _, alg := range algs {
		for _, sp := range workloads {
			rep, err := explorationRun(randomTeam(alg, k, obliviousBuild(sp, n), cfg.Seed+3), horizon)
			if err != nil {
				return err
			}
			ok := possibleVerdict(rep, horizon)
			explored[alg.Name()+"/"+sp.Name] = ok
			res.Table.AddRow(alg.Name(), sp.Name, rep.Covered, rep.MaxGap, ok)
		}
	}
	if !explored["pef3+/eventual-missing"] {
		res.fail("unexpected: full PEF_3+ failed the eventual-missing workload")
	}
	if explored["pef3+/no-rule3/eventual-missing"] {
		res.fail("unexpected: removing Rule 3 still explored the eventual-missing workload")
	}
	res.Notes = append(res.Notes,
		"Rule 3 (turn back after moving into a tower) is what rescues exploration once an eventual missing edge exists (Lemma 3.1).",
		"The no-rule2 ablation destroys the sentinel role; its outcome documents how much Rule 2 contributes.")
	return nil
}

var x5 = sweep{
	rings:      []int{4, 8, 16},
	quickRings: []int{4, 8},
	header:     []string{"n", "cut edge", "cover", "maxGap", "verdict"},
	body: func(cfg Config, res *Result, c sweepCase) error {
		n := c.n
		horizon := pick(cfg, 300*n, 100*n)
		for _, cut := range []int{0, n / 2} {
			build := func(seed uint64) fsync.Dynamics {
				base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0x11)
				return fsync.Oblivious{G: dynamics.NewChain(base, cut)}
			}
			rep, err := explorationRun(randomTeam(core.PEF3Plus{}, 3, build, cfg.Seed+uint64(n+cut)), horizon)
			if err != nil {
				return err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.fail("FAIL n=%d cut=%d: %s", n, cut, rep)
			}
			res.Table.AddRow(n, cut, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
		return nil
	},
	notes: []string{"A connected-over-time chain is a connected-over-time ring with one edge missing forever; the paper's results transfer."},
}

func runX6(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("initial configuration", "workload", "covered", "maxGap", "explores")
	const n, k = 8, 3
	horizon := pick(cfg, 2400, 800)
	corrupt := func(dirFlips, movedSet int) []fsync.Placement {
		ps := make([]fsync.Placement, k)
		for i := 0; i < k; i++ {
			c := (core.PEF3Plus{}).NewCore()
			// Drive the core into a non-initial state through synthetic
			// views: a moved-flag set, possibly a flipped dir.
			if movedSet&(1<<i) != 0 {
				c.Compute(robot.View{EdgeDir: true})
			}
			if dirFlips&(1<<i) != 0 {
				c.Compute(robot.View{EdgeDir: true, OtherRobots: true})
			}
			ps[i] = fsync.Placement{Node: i * 2, Chirality: robot.RightIsCW, Core: c}
		}
		return ps
	}
	tower := []fsync.Placement{
		{Node: 0, Chirality: robot.RightIsCW},
		{Node: 0, Chirality: robot.RightIsCCW},
		{Node: 0, Chirality: robot.RightIsCW},
	}
	cases := []struct {
		name       string
		placements []fsync.Placement
	}{
		{"arbitrary dirs and moved flags", corrupt(0b101, 0b111)},
		{"all moved flags corrupted", corrupt(0b000, 0b111)},
		{"triple tower on node 0", tower},
	}
	workloads := []dynamics.Spec{
		dynamics.StaticSpec(),
		dynamics.EventualMissingSpec(0, 16, 0.9, 4),
	}
	for _, c := range cases {
		for _, sp := range workloads {
			rep, err := explorationRun(fsync.Config{
				Algorithm:   core.PEF3Plus{},
				Dynamics:    obliviousBuild(sp, n)(cfg.Seed + 5),
				Placements:  c.placements,
				AllowTowers: true,
			}, horizon)
			if err != nil {
				return err
			}
			res.Table.AddRow(c.name, sp.Name, rep.Covered, rep.MaxGap, possibleVerdict(rep, horizon))
		}
	}
	res.Notes = append(res.Notes,
		"The paper assumes towerless well-initiated executions; [4] gives a self-stabilizing algorithm.",
		"This probe documents PEF_3+'s empirical behaviour from corrupted states; the paper makes no claim here, so the experiment passes by reporting.")
	return nil
}
