package adversary

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
	"pef/internal/spec"
)

// victimSuite is the empirical stand-in for "any deterministic algorithm":
// all baselines plus the paper's algorithms used outside their valid range.
func victimSuite() []robot.Algorithm {
	suite := baseline.Suite()
	suite = append(suite, core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3)
	return suite
}

func TestOneRobotConfinementAcrossSuite(t *testing.T) {
	for _, alg := range victimSuite() {
		for _, n := range []int{3, 4, 8, 16} {
			for _, chir := range []robot.Chirality{robot.RightIsCW, robot.RightIsCCW} {
				adv := NewOneRobotConfinement(n, 0, 0)
				ct := spec.NewConfinementTracker()
				sim, err := fsync.New(fsync.Config{
					Algorithm:  alg,
					Dynamics:   adv,
					Placements: []fsync.Placement{{Node: 0, Chirality: chir}},
					Observers:  []fsync.Observer{ct},
				})
				if err != nil {
					t.Fatalf("%s n=%d: %v", alg.Name(), n, err)
				}
				sim.Run(64 * n)
				if !ct.ConfinedTo(2) {
					t.Errorf("%s n=%d chir=%v: visited %d nodes %v, expected <= 2",
						alg.Name(), n, chir, ct.Distinct(), ct.VisitedNodes())
				}
			}
		}
	}
}

func TestOneRobotConfinementNodes(t *testing.T) {
	adv := NewOneRobotConfinement(8, 5, 0)
	u, v := adv.Nodes()
	if u != 5 || v != 4 {
		t.Fatalf("Nodes = (%d,%d), want (5,4)", u, v)
	}
}

func TestOneRobotAdversaryKeepsSnapshotsConnected(t *testing.T) {
	// Every snapshot the adversary produces removes exactly one edge.
	adv := NewOneRobotConfinement(6, 0, 0)
	sim, err := fsync.New(fsync.Config{
		Algorithm:   baseline.BounceOnMissing,
		Dynamics:    adv,
		Placements:  []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(100)
	rec := sim.RecordedGraph()
	for tt := 0; tt < rec.Horizon(); tt++ {
		if !rec.Snapshot(tt).ConnectedAsRing() {
			t.Fatalf("snapshot at t=%d disconnected", tt)
		}
	}
}

func TestOneRobotAdversaryRealizesConnectedOverTime(t *testing.T) {
	// Against a live victim (bounce-on-missing keeps moving), all edges
	// must be recurrent: absence intervals finite, every pair reachable.
	adv := NewOneRobotConfinement(5, 0, 0)
	sim, err := fsync.New(fsync.Config{
		Algorithm:   baseline.BounceOnMissing,
		Dynamics:    adv,
		Placements:  []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(400)
	rec := sim.RecordedGraph()
	rep := dyngraph.VerifyConnectedOverTime(rec, 400, []int{0, 100, 250})
	if !rep.OK {
		t.Fatalf("realized graph not connected-over-time: %+v", rep.Failures)
	}
}

func TestOneRobotStallDetection(t *testing.T) {
	// keep-direction with RightIsCW points CCW; at node 0 the adversary
	// blocks the CW edge, so the robot moves to v=n-1 immediately, then at
	// v the CCW edge is blocked while the robot still points CCW: stall.
	adv := NewOneRobotConfinement(5, 0, 0)
	sim, err := fsync.New(fsync.Config{
		Algorithm:  baseline.KeepDirection,
		Dynamics:   adv,
		Placements: []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(50)
	info, stalled := adv.Stall(sim.Now(), 20)
	if !stalled {
		t.Fatal("expected a stall for keep-direction")
	}
	if info.Node != 4 || info.MissingSide != ring.CCW {
		t.Fatalf("stall info = %+v, want node 4 missing CCW", info)
	}
}

func TestTwoRobotConfinementAcrossSuite(t *testing.T) {
	for _, alg := range victimSuite() {
		for _, n := range []int{4, 5, 8, 16} {
			for _, chirs := range [][2]robot.Chirality{
				{robot.RightIsCW, robot.RightIsCW},
				{robot.RightIsCW, robot.RightIsCCW},
			} {
				adv := NewTwoRobotConfinement(n, 0, 0, 1)
				ct := spec.NewConfinementTracker()
				sim, err := fsync.New(fsync.Config{
					Algorithm: alg,
					Dynamics:  adv,
					Placements: []fsync.Placement{
						{Node: 0, Chirality: chirs[0]},
						{Node: 1, Chirality: chirs[1]},
					},
					Observers: []fsync.Observer{ct},
				})
				if err != nil {
					t.Fatalf("%s n=%d: %v", alg.Name(), n, err)
				}
				sim.Run(64 * n)
				if !ct.ConfinedTo(3) {
					t.Errorf("%s n=%d chirs=%v: visited %d nodes %v, expected <= 3",
						alg.Name(), n, chirs, ct.Distinct(), ct.VisitedNodes())
				}
			}
		}
	}
}

func TestTwoRobotPhasesCycleAgainstLiveVictim(t *testing.T) {
	// tower-bounce robots keep moving when forced, so the adversary must
	// complete many full phase cycles.
	adv := NewTwoRobotConfinement(6, 0, 0, 1)
	sim, err := fsync.New(fsync.Config{
		Algorithm: baseline.BounceOnMissing,
		Dynamics:  adv,
		Placements: []fsync.Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 1, Chirality: robot.RightIsCW},
		},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(200)
	if _, stalled := adv.Stall(sim.Now(), 100); stalled {
		t.Fatal("bounce-on-missing should not stall the phase machine")
	}
	// Realized graph must be connected-over-time (all absence intervals
	// finite) when phases keep cycling.
	rec := sim.RecordedGraph()
	rep := dyngraph.VerifyConnectedOverTime(rec, 200, []int{0, 60})
	if !rep.OK {
		t.Fatalf("realized graph not connected-over-time: %+v", rep.Failures)
	}
}

func TestTwoRobotStallInfoSides(t *testing.T) {
	// keep-direction robots: r2 at node 1 points CCW (towards u), which
	// phase 0 blocks — immediate stall on v with the missing edge CCW.
	adv := NewTwoRobotConfinement(5, 0, 0, 1)
	sim, err := fsync.New(fsync.Config{
		Algorithm: baseline.KeepDirection,
		Dynamics:  adv,
		Placements: []fsync.Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 1, Chirality: robot.RightIsCW},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(40)
	info, stalled := adv.Stall(sim.Now(), 30)
	if !stalled {
		t.Fatal("expected stall")
	}
	if info.Robot != 1 || info.Node != 1 || info.MissingSide != ring.CCW {
		t.Fatalf("stall info = %+v", info)
	}
}

func TestBlockPointedBudgetIsRespected(t *testing.T) {
	adv := NewBlockPointed(6, 3)
	sim, err := fsync.New(fsync.Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    adv,
		Placements:  fsync.EvenPlacements(6, 3),
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(300)
	rec := sim.RecordedGraph()
	for e := 0; e < 6; e++ {
		if run := dyngraph.MaxAbsenceRun(rec, e, 300); run > 3 {
			t.Fatalf("edge %d absent for %d consecutive rounds, budget 3", e, run)
		}
	}
}

func TestBlockBothSidesStillAllowsExploration(t *testing.T) {
	adv := NewBlockBothSides(6, 2)
	vt := spec.NewVisitTracker(6)
	sim, err := fsync.New(fsync.Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   adv,
		Placements: fsync.EvenPlacements(6, 3),
		Observers:  []fsync.Observer{vt},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(600)
	rep := vt.Report()
	if rep.Covered != 6 {
		t.Fatalf("FSYNC control failed to cover: %s", rep)
	}
}
