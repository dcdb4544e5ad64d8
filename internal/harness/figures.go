package harness

import (
	"fmt"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/convergence"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/robot"
	"pef/internal/trace"
)

func runF1(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("algorithm", "chirality", "stall t", "claims 1-4", "stalled forever", "visited in G'", "verdict")
	horizon, patience := pick(cfg, 120, 60), pick(cfg, 40, 20)
	cases := 0
	for _, alg := range victimSuite() {
		for _, chir := range []robot.Chirality{robot.RightIsCW, robot.RightIsCCW} {
			adv := adversary.NewOneRobotConfinement(8, 0, 0)
			_, sim, rec, err := confinementRun(alg, adv, team(chir), horizon, true)
			if err != nil {
				return err
			}
			info, stalled := adv.Stall(sim.Now(), patience)
			if !stalled {
				continue // cycling victims are covered by E-T1.R4 directly
			}
			cases++
			world, err := adversary.BuildMirror(adversary.MirrorInput{
				Alg:         alg,
				Chir:        chir,
				G:           sim.RecordedGraph(),
				Traj:        rec.Trajectory(0)[:info.Since+1],
				States:      rec.States(0)[:info.Since+1],
				StallTime:   info.Since,
				MissingSide: info.MissingSide,
			})
			if err != nil {
				return fmt.Errorf("mirror build for %s: %w", alg.Name(), err)
			}
			rep, err := world.Verify(horizon / 2)
			if err != nil {
				return err
			}
			ok := rep.OK()
			if !ok {
				res.fail("FAIL %s: %v", alg.Name(), rep.Failures)
			}
			res.Table.AddRow(alg.Name(), chir, info.Since,
				fmt.Sprintf("%t/%t/%t/%t", rep.Claim1, rep.Claim2, rep.Claim3, rep.Claim4),
				rep.StalledForever, rep.DistinctVisited, verdict(ok))
		}
	}
	if cases == 0 {
		res.fail("no stalled prefixes found — mirror untested")
	}
	res.Notes = append(res.Notes,
		"Each stalled prefix from the Theorem 5.1 adversary is mirrored onto the 8-node gadget of Figure 1.",
		"Claims: (1) symmetric actions, (2) odd distance / no tower, (3) r1 retraces the original prefix, (4) adjacency and equal state at the stall.")
	return nil
}

// convergenceCheck rebuilds the graph sequence of the realized schedule g
// from its first limit phase boundaries and checks that alg's executions
// on it converge to the execution on g (the [5] theorem).
func convergenceCheck(alg robot.Algorithm, placements []fsync.Placement, g *dyngraph.Recorded, limit, horizon int) (*convergence.Sequence, convergence.Report, error) {
	bs := convergence.PhaseBoundaries(g)
	seq := convergence.SequenceFromSchedule(g, bs[:min(len(bs), limit)])
	conv, err := convergence.VerifyExecutionConvergence(alg, placements, seq, g, horizon)
	return seq, conv, err
}

// schedule is a Figure 2 or 3 construction: bounce-on-missing runs from
// placements against the theorem's adversary on the 8-node ring for
// horizon rounds, and must visit at most limit nodes.
type schedule struct {
	adv                  fsync.Dynamics
	placements           []fsync.Placement
	limit, horizon, rows int
	// finiteAbsence (E-F3 only) also checks that every absence interval
	// is finite, the property the proof of Theorem 5.1 needs for Gω.
	finiteAbsence bool
	note          string
}

// checkSchedule is the shared body of Figures 2 and 3: it checks the
// realized schedule (confinement, connected-over-time, growing graph
// sequence prefixes, execution convergence) and shows its first rows as a
// space-time diagram.
func checkSchedule(res *Result, s schedule) error {
	res.Table = metrics.NewTable("check", "value", "verdict")
	alg := baseline.BounceOnMissing{}
	ct, sim, rec, err := confinementRun(alg, s.adv, s.placements, s.horizon, true)
	if err != nil {
		return err
	}
	g := sim.RecordedGraph()

	confined := ct.ConfinedTo(s.limit)
	res.Table.AddRow("distinct nodes visited", ct.Distinct(), verdict(confined))
	cot := dyngraph.VerifyConnectedOverTime(g, s.horizon, []int{0, s.horizon / 3, 2 * s.horizon / 3})
	res.Table.AddRow("realized graph connected-over-time", cot.OK, verdict(cot.OK))
	res.Pass = confined && cot.OK

	if s.finiteAbsence {
		// On a finite horizon the witness is a short maximal absence run:
		// the live victim keeps moving, so no edge stays blocked for more
		// than a few rounds.
		maxRun := 0
		for e := 0; e < g.Ring().Edges(); e++ {
			maxRun = max(maxRun, dyngraph.MaxAbsenceRun(g, e, s.horizon))
		}
		finite := maxRun <= s.horizon/4
		res.Table.AddRow("max absence run (finite intervals)", maxRun, verdict(finite))
		res.Pass = res.Pass && finite
	}

	seq, conv, err := convergenceCheck(alg, s.placements, g, 8, s.horizon)
	if err != nil {
		return err
	}
	growing := seq.GrowingPrefixes()
	res.Table.AddRow("graph sequence prefixes growing", growing, verdict(growing))
	res.Table.AddRow("execution convergence ([5] theorem)", conv.OK, verdict(conv.OK))
	res.Pass = res.Pass && growing && conv.OK

	snaps := make([]fsync.Snapshot, rec.Len())
	for t := range snaps {
		snaps[t] = rec.At(t)
	}
	res.Diagram = trace.Header(g.Ring().Size()) + trace.SpaceTimeString(g, snaps, 0, s.rows)
	res.Notes = append(res.Notes, s.note)
	return nil
}

func runF2(cfg Config, res *Result) error {
	return checkSchedule(res, schedule{
		adv:        adversary.NewTwoRobotConfinement(8, 0, 0, 1),
		placements: team(robot.RightIsCW, robot.RightIsCW),
		limit:      3,
		horizon:    pick(cfg, 320, 120),
		rows:       20,
		note:       "The diagram shows the four-phase cycle of Figure 2: r2 pushed v→w, r1 pulled u→v→u, r2 returned w→v.",
	})
}

func runF3(cfg Config, res *Result) error {
	// bounce-on-missing keeps moving forever: the schedule realizes Gω.
	return checkSchedule(res, schedule{
		adv:           adversary.NewOneRobotConfinement(8, 0, 0),
		placements:    team(robot.RightIsCW),
		limit:         2,
		horizon:       pick(cfg, 240, 80),
		rows:          16,
		finiteAbsence: true,
		note:          "The diagram shows the alternating single-edge removals of Figure 3 chasing the robot between u and v.",
	})
}
