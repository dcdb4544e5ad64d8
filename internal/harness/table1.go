package harness

import (
	"context"
	"fmt"
	"slices"

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
// report of a visit tracker riding along with c's observers. Simulators
// come from the fsync pool: across an (experiment × seed) sweep the same
// backing slices serve every run.
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

// exploration is the outcome of one run of a possibility row: its
// exploration report and, when the tower invariants of Lemmas 3.3/3.4
// were checked, its tower rounds and violations.
type exploration struct {
	rep        spec.ExplorationReport
	towers     int
	violations []string
}

// ok is the row verdict: the possibility criterion and no tower violation.
func (x exploration) ok(horizon int) bool {
	return possibleVerdict(x.rep, horizon) && len(x.violations) == 0
}

// explorations runs team(0), …, team(runs-1) for horizon rounds each,
// checking the tower invariants when towers is set. team(i) must build a
// fresh config for run i on every call; runs may differ in ring, team size
// and algorithm. The runs of a rule table whose dynamics have
// a lane form (LaneEligible: here oblivious graphs and the fresh
// block-pointed adversary) form one LaneBlock, each lane with its own
// table; the others, and every lane that fails the
// possibility verdict or a tower lemma, run on the scalar path, so every
// outcome, failure notes included, is the scalar run's. Lanes pay for
// blocks of about n/2 runs or more (a lockstep round costs O(k·n) word
// operations whatever the lane count, a scalar round O(k) per run), which
// is why only the Table 1 rows with 8–24 runs per ring call this and E-X1,
// E-X2 and E-X7 run each team through explorationRun.
func explorations(runs, horizon int, towers bool, team func(i int) fsync.Config) ([]exploration, error) {
	cs := make([]fsync.Config, runs)
	var idx []int
	var lanes []Lane
	for i := range cs {
		cs[i] = team(i)
		table, ok := cs[i].Algorithm.(robot.Table)
		if ok && LaneEligible(cs[i].Dynamics, cs[i].Dynamics.Ring().Size()) {
			idx = append(idx, i)
			lanes = append(lanes, Lane{Dynamics: cs[i].Dynamics, Table: table, Placements: cs[i].Placements, Horizon: horizon})
		}
	}
	reps, err := NewLaneBlock().Run(context.Background(), LaneConfig{Lanes: lanes, Towers: towers})
	out := make([]exploration, runs)
	for j, i := range idx {
		if err == nil && !reps[j].Flagged && possibleVerdict(reps[j].Report, horizon) {
			out[i] = exploration{rep: reps[j].Report, towers: reps[j].Towers}
			cs[i].Dynamics = nil // settled on lanes
		} else {
			cs[i] = team(i) // the block may have consumed the run's dynamics
		}
	}
	for i, c := range cs {
		if c.Dynamics == nil {
			continue
		}
		var ti *spec.TowerInvariants
		if towers {
			ti = spec.NewTowerInvariants()
			c.Observers = append(c.Observers, ti)
		}
		rep, err := explorationRun(c, horizon)
		if err != nil {
			return nil, err
		}
		out[i].rep = rep
		if ti != nil {
			out[i].towers, out[i].violations = ti.TowerRounds(), ti.Violations()
		}
	}
	return out, nil
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
		ks := slices.DeleteFunc(pick(cfg, []int{3, 4, 5}, []int{3}), func(k int) bool { return k >= n })
		// Run i is team ks[i/len(wls)] on workload i%len(wls), all one block.
		wls := positiveWorkloads(n)
		xs, err := explorations(len(ks)*len(wls), horizon, true, func(i int) fsync.Config {
			k := ks[i/len(wls)]
			return randomTeam(core.PEF3Plus, k, wls[i%len(wls)].build, cfg.Seed+uint64(n*100+k))
		})
		if err != nil {
			return err
		}
		for i, x := range xs {
			k, name := ks[i/len(wls)], wls[i%len(wls)].name
			res.ObserveExploration(x.rep)
			ok := x.ok(horizon)
			if !ok {
				res.fail("FAIL k=%d n=%d %s: %s, tower violations %v", k, n, name, x.rep, x.violations)
			}
			res.Table.AddRow(k, n, name, x.rep.CoverTime, x.rep.MaxGap, x.towers, verdict(ok))
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
	wls := positiveWorkloads(n)
	chirs := [][2]robot.Chirality{
		{robot.RightIsCW, robot.RightIsCW},
		{robot.RightIsCW, robot.RightIsCCW},
	}
	// Run i is workload i/2 under chirality pair i%2.
	xs, err := explorations(len(wls)*len(chirs), horizon, false, func(i int) fsync.Config {
		ch := chirs[i%2]
		return fsync.Config{
			Algorithm:  core.PEF2,
			Dynamics:   wls[i/2].build(cfg.Seed + uint64(i%2)),
			Placements: []fsync.Placement{{Node: 0, Chirality: ch[0]}, {Node: 1, Chirality: ch[1]}},
		}
	})
	if err != nil {
		return err
	}
	for i, x := range xs {
		name, ch := wls[i/2].name, chirs[i%2]
		res.ObserveExploration(x.rep)
		ok := x.ok(horizon)
		if !ok {
			res.fail("FAIL %s chir=%v: %s", name, ch, x.rep)
		}
		res.Table.AddRow(name, fmt.Sprintf("%v/%v", ch[0], ch[1]), x.rep.CoverTime, x.rep.MaxGap, verdict(ok))
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
	type run struct {
		variant string
		sp      dynamics.Spec
	}
	var runs []run
	for _, v := range []string{"multigraph", "chain"} {
		for _, sp := range dynamics.StandardSuite() {
			if v == "chain" && sp.Name == "eventual-missing" {
				// The chain variant already removes one of the two edges
				// forever; removing the other too would disconnect the
				// graph permanently, leaving the class of the paper.
				continue
			}
			runs = append(runs, run{v, sp})
		}
	}
	xs, err := explorations(len(runs), horizon, false, func(i int) fsync.Config {
		r := runs[i]
		build := obliviousBuild(r.sp, n)
		if r.variant == "chain" {
			build = func(seed uint64) fsync.Dynamics {
				return fsync.Oblivious{G: dynamics.NewChain(r.sp.Build(n, seed), 1)}
			}
		}
		return randomTeam(core.PEF1, k, build, cfg.Seed+7)
	})
	if err != nil {
		return err
	}
	for i, x := range xs {
		r := runs[i]
		res.ObserveExploration(x.rep)
		ok := x.ok(horizon)
		if !ok {
			res.fail("FAIL %s %s: %s", r.variant, r.sp.Name, x.rep)
		}
		res.Table.AddRow(r.variant, r.sp.Name, x.rep.CoverTime, x.rep.MaxGap, verdict(ok))
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
	algs = append(algs, core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3)
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

// confinementRun runs alg from placements against a confinement adversary
// for horizon rounds and returns the confinement tracker, the simulator
// and a recorder of every snapshot. The simulator keeps the realized graph
// and finds the run's lasso without retiring it, for the mirror
// (adversary.ReadStall), the convergence checks and the diagrams.
func confinementRun(alg robot.Algorithm, adv fsync.Dynamics, placements []fsync.Placement, horizon int) (*spec.ConfinementTracker, *fsync.Simulator, *fsync.SnapshotRecorder, error) {
	ct := spec.NewConfinementTracker()
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		Observers:   []fsync.Observer{ct, rec},
		RecordGraph: true,
		Lasso:       true,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sim.Run(horizon)
	return ct, sim, rec, nil
}

// confinementSweep is the shared body of the Table 1 impossibility rows:
// every victim runs from placements against the theorem's adversary on
// every ring, and must visit at most limit nodes. A run retires at its
// lasso; it is "stalled" when no robot moves during the cycle
// (adversary.Stalled), and "cycling" otherwise, including a run whose
// lasso does not close within the horizon.
func confinementSweep(adv func(n int) fsync.Dynamics, placements []fsync.Placement, limit int, rings, quickRings []int, notes ...string) sweep {
	return sweep{
		rings:      rings,
		quickRings: quickRings,
		victims:    true,
		header:     []string{"algorithm", "n", "visited", "outcome", "verdict"},
		notes:      notes,
		body: func(cfg Config, res *Result, c sweepCase) error {
			horizon := pick(cfg, 64*c.n, 24*c.n)
			ct := spec.NewConfinementTracker()
			sim, err := fsync.Acquire(fsync.Config{
				Algorithm:  c.alg,
				Dynamics:   adv(c.n),
				Placements: placements,
				Observers:  []fsync.Observer{ct},
				Lasso:      true,
				Horizon:    horizon,
			})
			if err != nil {
				return err
			}
			sim.Run(horizon)
			outcome := "cycling"
			if adversary.Stalled(sim, ct.LastMove()) {
				outcome = "stalled"
			}
			sim.Release()
			ok := ct.ConfinedTo(limit)
			if !ok {
				res.fail("FAIL %s n=%d visited %v", c.alg.Name(), c.n, ct.VisitedNodes())
			}
			res.Table.AddRow(c.alg.Name(), c.n, ct.Distinct(), outcome, verdict(ok))
			return nil
		},
	}
}

var t1r2 = confinementSweep(func(n int) fsync.Dynamics { return adversary.NewTwoRobotConfinement(n, 0, 0, 1) },
	team(robot.RightIsCW, robot.RightIsCCW), 3, []int{4, 5, 8, 16}, []int{4, 8},
	"Paper prediction: impossible — every pair of deterministic robots visits at most 3 nodes.",
	"Stalled outcomes feed the Lemma 4.1 mirror gadget; see E-F1.")

var t1r4 = confinementSweep(func(n int) fsync.Dynamics { return adversary.NewOneRobotConfinement(n, 0, 0) },
	team(robot.RightIsCW), 2, []int{3, 4, 8, 16}, []int{3, 8},
	"Paper prediction: impossible — every deterministic algorithm visits at most 2 nodes.",
	"'cycling' realizes the recurrent-edges limit graph Gω; 'stalled' realizes a legal eventual-missing-edge graph.")
