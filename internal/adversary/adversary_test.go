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

// lassoRun runs placements under alg against adv for horizon rounds,
// recording the realized graph and every snapshot and looking for the
// lasso without retiring, as ReadStall's callers do.
func lassoRun(t *testing.T, alg robot.Algorithm, adv fsync.Dynamics, placements []fsync.Placement, horizon int) (*fsync.Simulator, *fsync.SnapshotRecorder) {
	t.Helper()
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		Observers:   []fsync.Observer{rec},
		RecordGraph: true,
		Lasso:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(horizon)
	return sim, rec
}

func TestOneRobotStallDetection(t *testing.T) {
	// keep-direction with RightIsCW points CCW; at node 0 the adversary
	// blocks the CW edge, so the robot moves to v=n-1 immediately, then at
	// v the CCW edge is blocked while the robot still points CCW: stall.
	sim, rec := lassoRun(t, baseline.KeepDirection, NewOneRobotConfinement(5, 0, 0),
		[]fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}, 50)
	info, stalled := ReadStall(sim, rec)
	if !stalled {
		t.Fatal("expected a stall for keep-direction")
	}
	if info.Node != 4 || info.Since != 1 || info.MissingSide != ring.CCW {
		t.Fatalf("stall info = %+v, want node 4 since t=1 missing CCW", info)
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
	sim, rec := lassoRun(t, baseline.BounceOnMissing, NewTwoRobotConfinement(6, 0, 0, 1), []fsync.Placement{
		{Node: 0, Chirality: robot.RightIsCW},
		{Node: 1, Chirality: robot.RightIsCW},
	}, 200)
	// The run is deterministic and finite-state, so its lasso closes; the
	// robots move during the cycle, which is what makes it no stall.
	if at, _, _ := sim.Lasso(); at == 0 {
		t.Fatal("the phase machine against bounce-on-missing never repeated")
	}
	if _, stalled := ReadStall(sim, rec); stalled {
		t.Fatal("bounce-on-missing should not stall the phase machine")
	}
	// Realized graph must be connected-over-time (all absence intervals
	// finite) when phases keep cycling.
	rep := dyngraph.VerifyConnectedOverTime(sim.RecordedGraph(), 200, []int{0, 60})
	if !rep.OK {
		t.Fatalf("realized graph not connected-over-time: %+v", rep.Failures)
	}
}

// TestReadStallReadsEveryPhase reads the stall of both confinement
// adversaries in every phase a victim can stall in: the four phases of
// Theorem 4.1 (the watched robot has one adjacent edge missing, the boxed
// one two) and both nodes of Theorem 5.1. The expected values are the
// phase tables of the proofs: robot, node, the instant the robots last
// moved, and the side of the blocked edge.
func TestReadStallReadsEveryPhase(t *testing.T) {
	keep, bounce := baseline.KeepDirection, baseline.BounceOnMissing
	cw, ccw := robot.RightIsCW, robot.RightIsCCW
	for _, tc := range []struct {
		name       string
		adv        fsync.Dynamics
		placements []fsync.Placement
		want       StallInfo
	}{
		// Phase 0: r2 on v, e_vl blocked; r1 boxed on u.
		{"two/phase 0", NewTwoRobotConfinement(5, 0, 0, 1),
			[]fsync.Placement{{Node: 0, Chirality: cw}, {Node: 1, Chirality: cw}},
			StallInfo{Robot: 1, Node: 1, Since: 0, MissingSide: ring.CCW}},
		// Phase 1: r1 on u, e_ul blocked; r2 boxed on w.
		{"two/phase 1", NewTwoRobotConfinement(5, 0, 0, 1),
			[]fsync.Placement{{Node: 0, Chirality: cw}, {Node: 1, Chirality: ccw}},
			StallInfo{Robot: 0, Node: 0, Since: 1, MissingSide: ring.CCW}},
		// Phase 2: r1 on v, e_vr blocked; r2 boxed on w.
		{"two/phase 2", NewTwoRobotConfinement(5, 0, 0, 1),
			[]fsync.Placement{{Node: 0, Chirality: ccw}, {Node: 1, Chirality: ccw}},
			StallInfo{Robot: 0, Node: 1, Since: 2, MissingSide: ring.CW}},
		// Phase 3: r1 bounces through phases 1 and 2, then r2 points at
		// e_wr forever; r1 boxed on u.
		{"two/phase 3", NewTwoRobotConfinement(5, 0, 0, 1),
			[]fsync.Placement{{Node: 0, Chirality: cw, Core: bounce.NewCore()}, {Node: 1, Chirality: ccw}},
			StallInfo{Robot: 1, Node: 2, Since: 3, MissingSide: ring.CW}},
		// Theorem 5.1 on u: e_ur blocked from the start.
		{"one/u", NewOneRobotConfinement(5, 0, 0),
			[]fsync.Placement{{Node: 0, Chirality: ccw}},
			StallInfo{Robot: 0, Node: 0, Since: 0, MissingSide: ring.CW}},
		// Theorem 5.1 on v: e_vl blocked after the forced first move.
		{"one/v", NewOneRobotConfinement(5, 0, 0),
			[]fsync.Placement{{Node: 0, Chirality: cw}},
			StallInfo{Robot: 0, Node: 4, Since: 1, MissingSide: ring.CCW}},
		// doubling-zigzag returns to u before it stalls there.
		{"one/u after a round trip", NewOneRobotConfinement(5, 0, 0),
			[]fsync.Placement{{Node: 0, Chirality: cw, Core: baseline.DoublingZigzag{}.NewCore()}},
			StallInfo{Robot: 0, Node: 0, Since: 2, MissingSide: ring.CW}},
	} {
		sim, rec := lassoRun(t, keep, tc.adv, tc.placements, 40)
		got, stalled := ReadStall(sim, rec)
		if !stalled || got != tc.want {
			t.Errorf("%s: ReadStall = %+v, %v; want %+v, true", tc.name, got, stalled, tc.want)
		}
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
