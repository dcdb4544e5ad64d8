package harness

import (
	"pef/internal/adversary"
	"pef/internal/core"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/metrics"
	"pef/internal/robot"
)

// runX11 makes the computability threshold of Table 1 visible in a single
// sweep: for k = 1 and k = 2 the paper's adversaries legally confine the
// robots; for k >= 3 the naive arc-containment generalization must either
// break legality (boundary edges eventually missing → not
// connected-over-time) or let PEF_3+ escape and explore everything.
func runX11(cfg Config, res *Result) error {
	res.Table = metrics.NewTable("k", "adversary", "visited", "confined", "graph legal (COT)", "outcome")
	const n = 8
	horizon := pick(cfg, 640, 240)

	cotStarts := []int{0, horizon / 3}

	// k = 1: Theorem 5.1 adversary.
	{
		ct, sim, _, err := confinementRun(core.PEF3Plus, adversary.NewOneRobotConfinement(n, 0, 0), team(robot.RightIsCW), horizon)
		if err != nil {
			return err
		}
		// A stalled victim freezes the schedule legally: the run's lasso
		// cycle repeats forever, and one edge missing from it keeps the
		// eventual underlying graph connected, a chain.
		at, period, _ := sim.Lasso()
		missing, closed := foreverMissing(sim.RecordedGraph(), at, period)
		legal := closed && len(missing) <= 1
		confined := ct.ConfinedTo(2)
		if !confined || !legal {
			res.Pass = false
		}
		res.Table.AddRow(1, "Theorem 5.1 phases", ct.Distinct(), confined, legal, "confined AND legal")
	}

	// k = 2: Theorem 4.1 adversary. PEF_3+ with two robots stalls in a
	// boxed phase, and the frozen schedule alone is not a legal
	// connected-over-time witness (several edges stay missing). This is
	// precisely the case the paper routes through the Lemma 4.1 mirror:
	// the stalled prefix transfers to the 8-node gadget G′, which has a
	// single eventually missing edge (legal), and both robot copies freeze
	// there forever.
	{
		placements := team(robot.RightIsCW, robot.RightIsCCW)
		ct, sim, rec, err := confinementRun(core.PEF3Plus, adversary.NewTwoRobotConfinement(n, 0, 0, 1), placements, horizon)
		if err != nil {
			return err
		}
		confined := ct.ConfinedTo(3)
		if info, stalled := adversary.ReadStall(sim, rec); stalled {
			world, err := adversary.BuildMirror(adversary.MirrorInput{
				Alg:         core.PEF3Plus,
				Chir:        placements[info.Robot].Chirality,
				G:           sim.RecordedGraph(),
				Traj:        rec.Trajectory(info.Robot)[:info.Since+1],
				States:      rec.States(info.Robot)[:info.Since+1],
				StallTime:   info.Since,
				MissingSide: info.MissingSide,
			})
			if err != nil {
				return err
			}
			mrep, err := world.Verify(horizon / 4)
			if err != nil {
				return err
			}
			legal := mrep.OK() && mrep.StalledForever
			if !confined || !legal {
				res.Pass = false
			}
			res.Table.AddRow(2, "Theorem 4.1 phases → mirror G'", mrep.DistinctVisited, confined, legal,
				"stall transferred to legal 8-node gadget")
		} else {
			legal := dyngraph.VerifyConnectedOverTime(sim.RecordedGraph(), horizon, cotStarts).OK
			if !confined || !legal {
				res.Pass = false
			}
			res.Table.AddRow(2, "Theorem 4.1 phases", ct.Distinct(), confined, legal, "confined AND legal")
		}
	}

	// k = 3: both arc-containment policies must fail one way or the other.
	for _, policy := range []struct {
		name   string
		budget int
	}{
		{"arc walls forever (budget 0)", 0},
		{"arc walls with budget 6", 6},
	} {
		adv := adversary.NewArcContainment(n, 0, 4, policy.budget)
		ct, sim, _, err := confinementRun(core.PEF3Plus, adv, fsync.AdjacentPlacements(n, 3, 0), horizon)
		if err != nil {
			return err
		}
		legal := dyngraph.VerifyConnectedOverTime(sim.RecordedGraph(), horizon, cotStarts).OK
		confined := ct.ConfinedTo(4)
		outcome := "escaped: exploration wins"
		if confined && legal {
			outcome = "CONTRADICTS Theorem 3.1"
			res.fail("FAIL: k=3 legally confined by %s", policy.name)
		} else if confined {
			outcome = "confined but ILLEGAL graph"
		}
		res.Table.AddRow(3, policy.name, ct.Distinct(), confined, legal, outcome)
	}

	res.Notes = append(res.Notes,
		"With one or two robots the paper's adversaries confine inside the class of connected-over-time rings.",
		"With three robots every containment attempt must choose: keep walls forever (illegal graph) or reopen them (PEF_3+ escapes).")
	return nil
}
