package harness

import (
	"fmt"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/convergence"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/robot"
	"pef/internal/spec"
	"pef/internal/ssync"
)

// x1Rings is the ring-size sweep of E-X1, shared by the full experiment
// and its per-ring-size shards.
func x1Rings(quick bool) []int {
	if quick {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32, 64}
}

func runX1(cfg Config) (Result, error) {
	return runX1Rings(cfg, "E-X1", x1Rings(cfg.Quick))
}

func shardX1(quick bool) []Experiment {
	return shardByRing("E-X1", "Cover time scaling of PEF_3+ with ring size",
		"extension", x1Rings(quick), runX1Rings)
}

func runX1Rings(cfg Config, id string, ns []int) (Result, error) {
	res := Result{ID: id, Title: "Cover time scaling of PEF_3+ with ring size",
		Artifact: "extension", Pass: true}
	res.Table = metrics.NewTable("n", "workload", "cover", "maxGap", "verdict")

	workloads := []dynamics.Spec{
		dynamics.StaticSpec(),
		dynamics.BernoulliSpec(0.5),
		dynamics.EventualMissingSpec(0, 32, 0.7, 4),
	}
	for _, n := range ns {
		horizon := 300 * n
		if cfg.Quick {
			horizon = 80 * n
		}
		for _, sp := range workloads {
			rep, err := explorationRun(core.PEF3Plus{}, n, 3, obliviousBuild(sp, n), cfg.Seed+uint64(n), horizon)
			if err != nil {
				return res, err
			}
			res.ObserveExploration(rep)
			ok := rep.Covered == n
			if !ok {
				res.Pass = false
			}
			res.Table.AddRow(n, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes,
		"Expected shape: cover time grows roughly linearly in n on static rings and by a Δ-factor under dynamics.")
	return res, nil
}

func runX2(cfg Config) (Result, error) {
	res := Result{ID: "E-X2", Title: "Revisit gap versus edge recurrence bound",
		Artifact: "extension", Pass: true}
	res.Table = metrics.NewTable("Δ", "cover", "maxGap", "verdict")

	const n = 8
	deltas := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		deltas = []int{1, 4, 16}
	}
	gaps := make([]int, 0, len(deltas))
	for _, d := range deltas {
		d := d
		horizon := 400 * d
		build := func(seed uint64) fsync.Dynamics {
			base := dynamics.NewBernoulli(n, 0.05, seed)
			return fsync.Oblivious{G: dynamics.NewBoundedRecurrence(base, d, seed^0xBEEF)}
		}
		rep, err := explorationRun(core.PEF3Plus{}, n, 3, build, cfg.Seed+uint64(d), horizon)
		if err != nil {
			return res, err
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
		res.Pass = false
		res.Notes = append(res.Notes, "gap did not grow with Δ — unexpected")
	}
	res.Notes = append(res.Notes, "PEF_3+'s revisit gap scales with the recurrence bound Δ of the dynamics.")
	return res, nil
}

func runX3(cfg Config) (Result, error) {
	res := Result{ID: "E-X3", Title: "Rule ablations of PEF_3+",
		Artifact: "extension (Section 3.1 rationale)", Pass: true}
	res.Table = metrics.NewTable("algorithm", "workload", "covered", "maxGap", "explores")

	const n, k = 8, 3
	horizon := 1600
	if cfg.Quick {
		horizon = 600
	}
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
			rep, err := explorationRun(alg, n, k, obliviousBuild(sp, n), cfg.Seed+3, horizon)
			if err != nil {
				return res, err
			}
			ok := possibleVerdict(rep, horizon)
			explored[alg.Name()+"/"+sp.Name] = ok
			res.Table.AddRow(alg.Name(), sp.Name, rep.Covered, rep.MaxGap, ok)
		}
	}
	if !explored["pef3+/eventual-missing"] {
		res.Pass = false
		res.Notes = append(res.Notes, "unexpected: full PEF_3+ failed the eventual-missing workload")
	}
	if explored["pef3+/no-rule3/eventual-missing"] {
		res.Pass = false
		res.Notes = append(res.Notes, "unexpected: removing Rule 3 still explored the eventual-missing workload")
	}
	res.Notes = append(res.Notes,
		"Rule 3 (turn back after moving into a tower) is what rescues exploration once an eventual missing edge exists (Lemma 3.1).",
		"The no-rule2 ablation destroys the sentinel role; its outcome documents how much Rule 2 contributes.")
	return res, nil
}

func runX4(cfg Config) (Result, error) {
	res := Result{ID: "E-X4", Title: "SSYNC impossibility versus FSYNC control",
		Artifact: "related work [10] (Section 1)", Pass: true}
	res.Table = metrics.NewTable("scheduler", "dynamics", "moves", "covered", "note")

	const n, k = 6, 3
	horizon := 600
	if cfg.Quick {
		horizon = 200
	}
	nodes := []int{0, 2, 4}
	chirs := []robot.Chirality{robot.RightIsCW, robot.RightIsCW, robot.RightIsCW}

	// SSYNC + freeze adversary: nobody ever moves, yet the realized graph
	// is connected-over-time (each edge present at all instants in which
	// its neighbourhood robot is inactive).
	sim1, err := ssync.New(ssync.Config{
		Algorithm:   core.PEF3Plus{},
		Dynamics:    ssync.NewFreezeAdversary(n),
		Activation:  ssync.RoundRobin{K: k},
		Nodes:       nodes,
		Chiralities: chirs,
	})
	if err != nil {
		return res, err
	}
	sim1.Run(horizon)
	ssyncBlocked := sim1.Moves() == 0
	res.Table.AddRow("SSYNC round-robin", "freeze adversary", sim1.Moves(), k, "exploration impossible; graph still connected-over-time")
	if !ssyncBlocked {
		res.Pass = false
		res.Notes = append(res.Notes, "unexpected: a robot moved under the SSYNC freeze adversary")
	}

	// SSYNC + the constructive pointed-edge adversary of [10]: removes only
	// the edge the activated robot wants to traverse (found by fixed-point
	// search over its deterministic Compute), falling back to its whole
	// neighbourhood only for present-edge chasers.
	pointed := ssync.NewPointedEdgeAdversary(n, core.PEF3Plus{}, chirs)
	sim3, err := ssync.New(ssync.Config{
		Algorithm:   core.PEF3Plus{},
		Dynamics:    pointed,
		Activation:  ssync.RoundRobin{K: k},
		Nodes:       nodes,
		Chiralities: chirs,
	})
	if err != nil {
		return res, err
	}
	sim3.Run(horizon)
	res.Table.AddRow("SSYNC round-robin", "pointed-edge adversary", sim3.Moves(), k,
		fmt.Sprintf("%d single-edge removals, %d fallbacks", pointed.SingleRemovals(), pointed.BothRemovals()))
	if sim3.Moves() != 0 {
		res.Pass = false
		res.Notes = append(res.Notes, "unexpected: a robot moved under the SSYNC pointed-edge adversary")
	}

	// FSYNC with the same freeze idea is illegal: blocking every robot's
	// neighbourhood forever makes those edges eventually missing around
	// static robots and disconnects the eventual underlying graph. The
	// budgeted variant (edges must reappear) lets PEF_3+ explore.
	vt := spec.NewVisitTracker(n)
	sim2, err := fsync.New(fsync.Config{
		Algorithm:  core.PEF3Plus{},
		Dynamics:   adversary.NewBlockBothSides(n, 3),
		Placements: fsync.EvenPlacements(n, k),
		Observers:  []fsync.Observer{vt},
	})
	if err != nil {
		return res, err
	}
	sim2.Run(horizon)
	rep := vt.Report()
	fsyncExplores := rep.Covered == n
	res.Table.AddRow("FSYNC", "block-both-sides (budget 3)", "-", rep.Covered, "edges must recur; exploration succeeds")
	if !fsyncExplores {
		res.Pass = false
		res.Notes = append(res.Notes, "unexpected: FSYNC control failed to explore")
	}
	res.Notes = append(res.Notes,
		"Reproduces the Di Luna et al. argument that exploration is impossible in SSYNC, motivating the paper's FSYNC model.")
	return res, nil
}

// x5Rings is the ring-size sweep of E-X5, shared by the full experiment
// and its per-ring-size shards.
func x5Rings(quick bool) []int {
	if quick {
		return []int{4, 8}
	}
	return []int{4, 8, 16}
}

func runX5(cfg Config) (Result, error) {
	return runX5Rings(cfg, "E-X5", x5Rings(cfg.Quick))
}

func shardX5(quick bool) []Experiment {
	return shardByRing("E-X5", "PEF_3+ on connected-over-time chains",
		"Section 1 remark", x5Rings(quick), runX5Rings)
}

func runX5Rings(cfg Config, id string, ns []int) (Result, error) {
	res := Result{ID: id, Title: "PEF_3+ on connected-over-time chains",
		Artifact: "Section 1 remark", Pass: true}
	res.Table = metrics.NewTable("n", "cut edge", "cover", "maxGap", "verdict")

	for _, n := range ns {
		horizon := 300 * n
		if cfg.Quick {
			horizon = 100 * n
		}
		for _, cut := range []int{0, n / 2} {
			cut := cut
			build := func(seed uint64) fsync.Dynamics {
				base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0x11)
				return fsync.Oblivious{G: dynamics.NewChain(base, cut)}
			}
			rep, err := explorationRun(core.PEF3Plus{}, n, 3, build, cfg.Seed+uint64(n+cut), horizon)
			if err != nil {
				return res, err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.Pass = false
				res.Notes = append(res.Notes, fmt.Sprintf("FAIL n=%d cut=%d: %s", n, cut, rep))
			}
			res.Table.AddRow(n, cut, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes,
		"A connected-over-time chain is a connected-over-time ring with one edge missing forever; the paper's results transfer.")
	return res, nil
}

func runX6(cfg Config) (Result, error) {
	res := Result{ID: "E-X6", Title: "Self-stabilization probe from corrupted configurations",
		Artifact: "extension ([4] context)", Pass: true}
	res.Table = metrics.NewTable("initial configuration", "workload", "covered", "maxGap", "explores")

	const n, k = 8, 3
	horizon := 2400
	if cfg.Quick {
		horizon = 800
	}
	type initCase struct {
		name       string
		placements []fsync.Placement
	}
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
	cases := []initCase{
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
			vt := spec.NewVisitTracker(n)
			sim, err := fsync.New(fsync.Config{
				Algorithm:   core.PEF3Plus{},
				Dynamics:    obliviousBuild(sp, n)(cfg.Seed + 5),
				Placements:  c.placements,
				AllowTowers: true,
				Observers:   []fsync.Observer{vt},
			})
			if err != nil {
				return res, err
			}
			sim.Run(horizon)
			rep := vt.Report()
			res.Table.AddRow(c.name, sp.Name, rep.Covered, rep.MaxGap, possibleVerdict(rep, horizon))
		}
	}
	res.Notes = append(res.Notes,
		"The paper assumes towerless well-initiated executions; [4] gives a self-stabilizing algorithm.",
		"This probe documents PEF_3+'s empirical behaviour from corrupted states; the paper makes no claim here, so the experiment passes by reporting.")
	return res, nil
}

func runX7(cfg Config) (Result, error) {
	res := Result{ID: "E-X7", Title: "Team size sweep",
		Artifact: "extension", Pass: true}
	res.Table = metrics.NewTable("k", "workload", "cover", "maxGap", "verdict")

	const n = 16
	ks := []int{3, 4, 5, 6, 8}
	if cfg.Quick {
		ks = []int{3, 5}
	}
	workloads := []dynamics.Spec{
		dynamics.BernoulliSpec(0.6),
		dynamics.EventualMissingSpec(3, 40, 0.7, 4),
	}
	for _, k := range ks {
		horizon := 300 * n
		if cfg.Quick {
			horizon = 80 * n
		}
		for _, sp := range workloads {
			rep, err := explorationRun(core.PEF3Plus{}, n, k, obliviousBuild(sp, n), cfg.Seed+uint64(k), horizon)
			if err != nil {
				return res, err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.Pass = false
				res.Notes = append(res.Notes, fmt.Sprintf("FAIL k=%d %s: %s", k, sp.Name, rep))
			}
			res.Table.AddRow(k, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "More robots shorten cover times but are never required beyond three.")
	return res, nil
}

func runX8(cfg Config) (Result, error) {
	res := Result{ID: "E-X8", Title: "Convergence framework prefix growth",
		Artifact: "framework [5]", Pass: true}
	res.Table = metrics.NewTable("source", "graphs", "prefixes", "growing", "executions agree")

	horizon := 240
	if cfg.Quick {
		horizon = 100
	}
	alg := baseline.BounceOnMissing{}
	// One-robot schedule.
	_, _, sim1, _, err := confineOne(alg, robot.RightIsCW, 6, horizon)
	if err != nil {
		return res, err
	}
	g1 := sim1.RecordedGraph()
	b1 := capBoundaries(convergence.PhaseBoundaries(g1), 6)
	seq1 := convergence.SequenceFromSchedule(g1, b1)
	conv1, err := convergence.VerifyExecutionConvergence(alg,
		[]fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}, seq1, g1, horizon)
	if err != nil {
		return res, err
	}
	res.Table.AddRow("Theorem 5.1 schedule", seq1.Len(), fmt.Sprintf("%v", seq1.PrefixLengths()), seq1.GrowingPrefixes(), conv1.OK)
	if !seq1.GrowingPrefixes() || !conv1.OK {
		res.Pass = false
	}

	// Two-robot schedule.
	adv := adversary.NewTwoRobotConfinement(6, 0, 0, 1)
	placements := []fsync.Placement{
		{Node: 0, Chirality: robot.RightIsCW},
		{Node: 1, Chirality: robot.RightIsCW},
	}
	sim2, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		RecordGraph: true,
	})
	if err != nil {
		return res, err
	}
	sim2.Run(horizon)
	g2 := sim2.RecordedGraph()
	b2 := capBoundaries(convergence.PhaseBoundaries(g2), 6)
	seq2 := convergence.SequenceFromSchedule(g2, b2)
	conv2, err := convergence.VerifyExecutionConvergence(alg, placements, seq2, g2, horizon)
	if err != nil {
		return res, err
	}
	res.Table.AddRow("Theorem 4.1 schedule", seq2.Len(), fmt.Sprintf("%v", seq2.PrefixLengths()), seq2.GrowingPrefixes(), conv2.OK)
	if !seq2.GrowingPrefixes() || !conv2.OK {
		res.Pass = false
	}

	res.Notes = append(res.Notes,
		"Graph sequences reconstructed from the realized adversary schedules have strictly growing common prefixes,",
		"and executions on them agree with the execution on the limit graph for at least the graph prefix — the [5] theorem.")
	return res, nil
}

// capBoundaries keeps at most the first limit boundaries.
func capBoundaries(bs []int, limit int) []int {
	if len(bs) > limit {
		return bs[:limit]
	}
	return bs
}
