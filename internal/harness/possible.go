package harness

import (
	"fmt"

	"pef/internal/adversary"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/spec"
)

// explorationRun executes alg with k robots on an n-node ring under the
// workload and returns the exploration report. Extra observers (E-T1.R1's
// tower invariants) ride along on the same run. Simulators come from the
// fsync pool: across an (experiment × seed) sweep the same backing slices
// serve every run.
func explorationRun(alg robot.Algorithm, n, k int, build func(seed uint64) fsync.Dynamics, seed uint64, horizon int, extra ...fsync.Observer) (spec.ExplorationReport, error) {
	vt := spec.NewVisitTracker(n)
	src := prng.NewSource(seed)
	sim, err := fsync.Acquire(fsync.Config{
		Algorithm:  alg,
		Dynamics:   build(seed),
		Placements: fsync.RandomPlacements(n, k, src),
		Observers:  append([]fsync.Observer{vt}, extra...),
	})
	if err != nil {
		return spec.ExplorationReport{}, err
	}
	sim.Run(horizon)
	sim.Release()
	return vt.Report(), nil
}

// obliviousBuild adapts a dynamics.Spec to the harness runner.
func obliviousBuild(sp dynamics.Spec, n int) func(seed uint64) fsync.Dynamics {
	return func(seed uint64) fsync.Dynamics {
		return fsync.Oblivious{G: sp.Build(n, seed)}
	}
}

// possibleVerdict is the finite-horizon acceptance criterion for the
// possibility rows of Table 1: full coverage, at least two visits per node
// (the ring keeps being re-explored), and a revisit gap no larger than half
// the horizon (a gap-bound that stays fixed as horizons grow). The scenario
// oracle enforces the same shared predicate.
func possibleVerdict(rep spec.ExplorationReport, horizon int) bool {
	return rep.ExploreViolation(2, horizon/2) == ""
}

// namedDynamics is one entry of a workload battery; order matters for
// report determinism.
type namedDynamics struct {
	name  string
	build func(seed uint64) fsync.Dynamics
}

// positiveWorkloads is the full workload battery for the possibility
// experiments: the standard oblivious suite plus the adaptive
// block-pointed stress adversary.
func positiveWorkloads(n int) []namedDynamics {
	var out []namedDynamics
	for _, sp := range dynamics.StandardSuite() {
		out = append(out, namedDynamics{name: sp.Name, build: obliviousBuild(sp, n)})
	}
	out = append(out, namedDynamics{
		name: "block-pointed-b3",
		build: func(_ uint64) fsync.Dynamics {
			return adversary.NewBlockPointed(n, 3)
		},
	})
	return out
}

// t1r1Rings is the ring-size sweep of E-T1.R1, shared by the full
// experiment and its per-ring-size shards.
func t1r1Rings(quick bool) []int {
	if quick {
		return []int{4, 8}
	}
	return []int{4, 6, 8, 12}
}

func runT1R1(cfg Config) (Result, error) {
	return runT1R1Rings(cfg, "E-T1.R1", t1r1Rings(cfg.Quick))
}

func shardT1R1(quick bool) []Experiment {
	return shardByRing("E-T1.R1", "PEF_3+ explores with k>=3 robots on n>k rings",
		"Table 1 row 1 (Theorem 3.1)", t1r1Rings(quick), runT1R1Rings)
}

func runT1R1Rings(cfg Config, id string, ns []int) (Result, error) {
	res := Result{ID: id, Title: "PEF_3+ explores with k>=3 robots on n>k rings",
		Artifact: "Table 1 row 1 (Theorem 3.1)", Pass: true}
	res.Table = metrics.NewTable("k", "n", "workload", "cover", "maxGap", "towers", "verdict")

	ks := []int{3, 4, 5}
	if cfg.Quick {
		ks = []int{3}
	}
	for _, n := range ns {
		horizon := 200 * n
		if cfg.Quick {
			horizon = 60 * n
		}
		for _, k := range ks {
			if n <= k {
				continue
			}
			for _, wl := range positiveWorkloads(n) {
				ti := spec.NewTowerInvariants()
				rep, err := explorationRun(core.PEF3Plus{}, n, k, wl.build, cfg.Seed+uint64(n*100+k), horizon, ti)
				if err != nil {
					return res, err
				}
				res.ObserveExploration(rep)
				ok := possibleVerdict(rep, horizon) && ti.OK()
				if !ok {
					res.Pass = false
					res.Notes = append(res.Notes, fmt.Sprintf("FAIL k=%d n=%d %s: %s, tower violations %v",
						k, n, wl.name, rep, ti.Violations()))
				}
				res.Table.AddRow(k, n, wl.name, rep.CoverTime, rep.MaxGap, ti.TowerRounds(), verdict(ok))
			}
		}
	}
	res.Notes = append(res.Notes,
		"Paper prediction: possible — every workload row must pass.",
		"Tower invariants of Lemmas 3.3/3.4 checked on every round of every run.")
	return res, nil
}

func runT1R3(cfg Config) (Result, error) {
	res := Result{ID: "E-T1.R3", Title: "PEF_2 explores the 3-node ring with 2 robots",
		Artifact: "Table 1 row 3 (Theorem 4.2)", Pass: true}
	res.Table = metrics.NewTable("workload", "chiralities", "cover", "maxGap", "verdict")

	const n, k = 3, 2
	horizon := 2000
	if cfg.Quick {
		horizon = 400
	}
	for _, wl := range positiveWorkloads(n) {
		for ci, chirs := range [][2]robot.Chirality{
			{robot.RightIsCW, robot.RightIsCW},
			{robot.RightIsCW, robot.RightIsCCW},
		} {
			vt := spec.NewVisitTracker(n)
			sim, err := fsync.New(fsync.Config{
				Algorithm: core.PEF2{},
				Dynamics:  wl.build(cfg.Seed + uint64(ci)),
				Placements: []fsync.Placement{
					{Node: 0, Chirality: chirs[0]},
					{Node: 1, Chirality: chirs[1]},
				},
				Observers: []fsync.Observer{vt},
			})
			if err != nil {
				return res, err
			}
			sim.Run(horizon)
			rep := vt.Report()
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.Pass = false
				res.Notes = append(res.Notes, fmt.Sprintf("FAIL %s chir=%v: %s", wl.name, chirs, rep))
			}
			res.Table.AddRow(wl.name, fmt.Sprintf("%v/%v", chirs[0], chirs[1]), rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "Paper prediction: possible on exactly n = 3.")
	return res, nil
}

func runT1R5(cfg Config) (Result, error) {
	res := Result{ID: "E-T1.R5", Title: "PEF_1 explores the 2-node ring with 1 robot",
		Artifact: "Table 1 row 5 (Theorem 5.2)", Pass: true}
	res.Table = metrics.NewTable("variant", "workload", "cover", "maxGap", "verdict")

	const n, k = 2, 1
	horizon := 1000
	if cfg.Quick {
		horizon = 200
	}
	// Two-node rings come in two flavours (Section 5.2): the multigraph
	// with two parallel edges (our native n=2 ring) and the simple 2-node
	// chain (one of the two edges permanently absent).
	type variant struct {
		name string
		wrap func(sp dynamics.Spec) func(seed uint64) fsync.Dynamics
	}
	variants := []variant{
		{"multigraph", func(sp dynamics.Spec) func(seed uint64) fsync.Dynamics {
			return obliviousBuild(sp, n)
		}},
		{"chain", func(sp dynamics.Spec) func(seed uint64) fsync.Dynamics {
			return func(seed uint64) fsync.Dynamics {
				return fsync.Oblivious{G: dynamics.NewChain(sp.Build(n, seed), 1)}
			}
		}},
	}
	for _, v := range variants {
		vname, wrap := v.name, v.wrap
		for _, sp := range dynamics.StandardSuite() {
			if vname == "chain" && sp.Name == "eventual-missing" {
				// The chain variant already removes one of the two edges
				// forever; removing the other too would disconnect the
				// graph permanently, leaving the class of the paper.
				continue
			}
			rep, err := explorationRun(core.PEF1{}, n, k, wrap(sp), cfg.Seed+7, horizon)
			if err != nil {
				return res, err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.Pass = false
				res.Notes = append(res.Notes, fmt.Sprintf("FAIL %s %s: %s", vname, sp.Name, rep))
			}
			res.Table.AddRow(vname, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "Paper prediction: possible on exactly n = 2 (both ring flavours).")
	return res, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
