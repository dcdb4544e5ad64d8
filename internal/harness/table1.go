package harness

import (
	"fmt"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/spec"
)

// explorationRun runs c for horizon rounds and returns the exploration
// report of a visit tracker riding along with c's observers (E-T1.R1's
// tower invariants). Simulators come from the fsync pool: across an
// (experiment × seed) sweep the same backing slices serve every run.
func explorationRun(c fsync.Config, horizon int) (spec.ExplorationReport, error) {
	vt := spec.NewVisitTracker(c.Dynamics.Ring().Size())
	c.Observers = append([]fsync.Observer{vt}, c.Observers...)
	sim, err := fsync.Acquire(c)
	if err != nil {
		return spec.ExplorationReport{}, err
	}
	sim.Run(horizon)
	sim.Release()
	return vt.Report(), nil
}

// randomTeam places k robots running alg at random on the ring of
// build(seed), both seeded by seed.
func randomTeam(alg robot.Algorithm, k int, build func(seed uint64) fsync.Dynamics, seed uint64) fsync.Config {
	dyn := build(seed)
	return fsync.Config{
		Algorithm:  alg,
		Dynamics:   dyn,
		Placements: fsync.RandomPlacements(dyn.Ring().Size(), k, prng.NewSource(seed)),
	}
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

var t1r1 = sweep{
	rings:      []int{4, 6, 8, 12},
	quickRings: []int{4, 8},
	header:     []string{"k", "n", "workload", "cover", "maxGap", "towers", "verdict"},
	body: func(cfg Config, res *Result, c sweepCase) error {
		n := c.n
		horizon := pick(cfg, 200*n, 60*n)
		for _, k := range pick(cfg, []int{3, 4, 5}, []int{3}) {
			if n <= k {
				continue
			}
			for _, wl := range positiveWorkloads(n) {
				ti := spec.NewTowerInvariants()
				c := randomTeam(core.PEF3Plus{}, k, wl.build, cfg.Seed+uint64(n*100+k))
				c.Observers = []fsync.Observer{ti}
				rep, err := explorationRun(c, horizon)
				if err != nil {
					return err
				}
				res.ObserveExploration(rep)
				ok := possibleVerdict(rep, horizon) && ti.OK()
				if !ok {
					res.fail("FAIL k=%d n=%d %s: %s, tower violations %v", k, n, wl.name, rep, ti.Violations())
				}
				res.Table.AddRow(k, n, wl.name, rep.CoverTime, rep.MaxGap, ti.TowerRounds(), verdict(ok))
			}
		}
		return nil
	},
	notes: []string{
		"Paper prediction: possible — every workload row must pass.",
		"Tower invariants of Lemmas 3.3/3.4 checked on every round of every run.",
	},
}

func runT1R3(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("workload", "chiralities", "cover", "maxGap", "verdict")
	const n = 3
	horizon := pick(cfg, 2000, 400)
	for _, wl := range positiveWorkloads(n) {
		for ci, chirs := range [][2]robot.Chirality{
			{robot.RightIsCW, robot.RightIsCW},
			{robot.RightIsCW, robot.RightIsCCW},
		} {
			rep, err := explorationRun(fsync.Config{
				Algorithm:  core.PEF2{},
				Dynamics:   wl.build(cfg.Seed + uint64(ci)),
				Placements: []fsync.Placement{{Node: 0, Chirality: chirs[0]}, {Node: 1, Chirality: chirs[1]}},
			}, horizon)
			if err != nil {
				return err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.fail("FAIL %s chir=%v: %s", wl.name, chirs, rep)
			}
			res.Table.AddRow(wl.name, fmt.Sprintf("%v/%v", chirs[0], chirs[1]), rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "Paper prediction: possible on exactly n = 3.")
	return nil
}

func runT1R5(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("variant", "workload", "cover", "maxGap", "verdict")
	const n, k = 2, 1
	horizon := pick(cfg, 1000, 200)
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
		for _, sp := range dynamics.StandardSuite() {
			if v.name == "chain" && sp.Name == "eventual-missing" {
				// The chain variant already removes one of the two edges
				// forever; removing the other too would disconnect the
				// graph permanently, leaving the class of the paper.
				continue
			}
			rep, err := explorationRun(randomTeam(core.PEF1{}, k, v.wrap(sp), cfg.Seed+7), horizon)
			if err != nil {
				return err
			}
			res.ObserveExploration(rep)
			ok := possibleVerdict(rep, horizon)
			if !ok {
				res.fail("FAIL %s %s: %s", v.name, sp.Name, rep)
			}
			res.Table.AddRow(v.name, sp.Name, rep.CoverTime, rep.MaxGap, verdict(ok))
		}
	}
	res.Notes = append(res.Notes, "Paper prediction: possible on exactly n = 2 (both ring flavours).")
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// victimSuite is the empirical stand-in for the universal quantifier of the
// impossibility theorems: all baselines plus the paper's algorithms run
// outside their valid range.
func victimSuite() []robot.Algorithm {
	algs := baseline.Suite()
	algs = append(algs, core.PEF3Plus{}, core.PEF2{}, core.PEF1{}, core.NoRule2{}, core.NoRule3{})
	return algs
}

// team places robot i on node i with chirality chirs[i]: the starting
// teams of the confinement constructions.
func team(chirs ...robot.Chirality) []fsync.Placement {
	ps := make([]fsync.Placement, len(chirs))
	for i, c := range chirs {
		ps[i] = fsync.Placement{Node: i, Chirality: c}
	}
	return ps
}

// confiner is a confinement adversary of Theorem 4.1 or 5.1, which can
// tell when its victims stalled.
type confiner interface {
	fsync.Dynamics
	Stall(now, patience int) (adversary.StallInfo, bool)
}

// confinementRun runs alg from placements against a confinement adversary
// for horizon rounds and returns the confinement tracker and the
// simulator. With record set, the simulator also keeps the realized graph
// and the recorder every snapshot, for the mirror, the convergence checks
// and the diagrams.
func confinementRun(alg robot.Algorithm, adv fsync.Dynamics, placements []fsync.Placement, horizon int, record bool) (*spec.ConfinementTracker, *fsync.Simulator, *fsync.SnapshotRecorder, error) {
	ct := spec.NewConfinementTracker()
	rec := &fsync.SnapshotRecorder{}
	obs := []fsync.Observer{ct}
	if record {
		obs = append(obs, rec)
	}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		Observers:   obs,
		RecordGraph: record,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sim.Run(horizon)
	return ct, sim, rec, nil
}

// confinementSweep is the shared body of the Table 1 impossibility rows:
// every victim runs from placements against the theorem's adversary on
// every ring, and must visit at most limit nodes.
func confinementSweep(adv func(n int) confiner, placements []fsync.Placement, limit int, rings, quickRings []int, notes ...string) sweep {
	return sweep{
		rings:      rings,
		quickRings: quickRings,
		victims:    true,
		header:     []string{"algorithm", "n", "visited", "outcome", "verdict"},
		notes:      notes,
		body: func(cfg Config, res *Result, c sweepCase) error {
			horizon := pick(cfg, 64*c.n, 24*c.n)
			a := adv(c.n)
			ct, sim, _, err := confinementRun(c.alg, a, placements, horizon, false)
			if err != nil {
				return err
			}
			outcome := "cycling"
			if _, stalled := a.Stall(sim.Now(), horizon/2); stalled {
				outcome = "stalled"
			}
			ok := ct.ConfinedTo(limit)
			if !ok {
				res.fail("FAIL %s n=%d visited %v", c.alg.Name(), c.n, ct.VisitedNodes())
			}
			res.Table.AddRow(c.alg.Name(), c.n, ct.Distinct(), outcome, verdict(ok))
			return nil
		},
	}
}

var t1r2 = confinementSweep(func(n int) confiner { return adversary.NewTwoRobotConfinement(n, 0, 0, 1) },
	team(robot.RightIsCW, robot.RightIsCCW), 3, []int{4, 5, 8, 16}, []int{4, 8},
	"Paper prediction: impossible — every pair of deterministic robots visits at most 3 nodes.",
	"Stalled outcomes feed the Lemma 4.1 mirror gadget; see E-F1.")

var t1r4 = confinementSweep(func(n int) confiner { return adversary.NewOneRobotConfinement(n, 0, 0) },
	team(robot.RightIsCW), 2, []int{3, 4, 8, 16}, []int{3, 8},
	"Paper prediction: impossible — every deterministic algorithm visits at most 2 nodes.",
	"'cycling' realizes the recurrent-edges limit graph Gω; 'stalled' realizes a legal eventual-missing-edge graph.")
