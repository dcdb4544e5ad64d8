package adversary

import (
	"testing"

	"pef/internal/core"
	"pef/internal/fsync"
	"pef/internal/robot"
)

// TestMirrorFromTwoRobotStall feeds the mirror gadget from a stall of the
// Theorem 4.1 adversary — the exact situation Lemma 4.1 is invoked for in
// the paper's proof. PEF_3+ with two robots stalls in phase 1 (robot 0
// stuck on u with its counter-clockwise edge missing, robot 1 boxed on w),
// and the stalled prefix must transfer to G′ with all four claims and a
// permanent freeze.
func TestMirrorFromTwoRobotStall(t *testing.T) {
	const n, horizon = 8, 160
	chirs := []robot.Chirality{robot.RightIsCW, robot.RightIsCCW}
	sim, rec := lassoRun(t, core.PEF3Plus, NewTwoRobotConfinement(n, 0, 0, 1), []fsync.Placement{
		{Node: 0, Chirality: chirs[0]},
		{Node: 1, Chirality: chirs[1]},
	}, horizon)

	info, stalled := ReadStall(sim, rec)
	if !stalled {
		t.Fatal("PEF_3+ with two robots should stall against the phase machine")
	}
	if info.Robot != 0 || info.Node != 0 {
		t.Fatalf("stall info = %+v, want robot 0 boxed on u = 0", info)
	}
	world, err := BuildMirror(MirrorInput{
		Alg:         core.PEF3Plus,
		Chir:        chirs[info.Robot],
		G:           sim.RecordedGraph(),
		Traj:        rec.Trajectory(info.Robot)[:info.Since+1],
		States:      rec.States(info.Robot)[:info.Since+1],
		StallTime:   info.Since,
		MissingSide: info.MissingSide,
	})
	if err != nil {
		t.Fatal(err)
	}
	mrep, err := world.Verify(80)
	if err != nil {
		t.Fatal(err)
	}
	if !mrep.OK() {
		t.Fatalf("claims failed: %+v", mrep.Failures)
	}
	if !mrep.StalledForever {
		t.Fatal("mirror copies did not freeze forever")
	}
	if mrep.DistinctVisited >= MirrorSize {
		t.Fatalf("mirror world fully visited (%d nodes): no confinement", mrep.DistinctVisited)
	}
}
