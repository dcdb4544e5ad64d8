package adversary

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// stalledPrefix runs alg as a single robot against the Theorem 5.1
// confinement adversary and reads its stall (ReadStall) into the mirror
// input. ok=false when the algorithm did not stall within the horizon (it
// keeps ping-ponging, which is the other — already confined — proof
// outcome).
func stalledPrefix(t *testing.T, alg robot.Algorithm, chir robot.Chirality, n, horizon int) (MirrorInput, bool) {
	t.Helper()
	sim, rec := lassoRun(t, alg, NewOneRobotConfinement(n, 0, 0), []fsync.Placement{{Node: 0, Chirality: chir}}, horizon)
	info, stalled := ReadStall(sim, rec)
	if !stalled {
		return MirrorInput{}, false
	}
	stallT := info.Since
	return MirrorInput{
		Alg:         alg,
		Chir:        chir,
		G:           sim.RecordedGraph(),
		Traj:        rec.Trajectory(info.Robot)[:stallT+1],
		States:      rec.States(info.Robot)[:stallT+1],
		StallTime:   stallT,
		MissingSide: info.MissingSide,
	}, true
}

func TestMirrorClaimsOnStalledKeepDirection(t *testing.T) {
	for _, chir := range []robot.Chirality{robot.RightIsCW, robot.RightIsCCW} {
		in, ok := stalledPrefix(t, baseline.KeepDirection, chir, 6, 60)
		if !ok {
			t.Fatalf("keep-direction (chir %v) did not stall", chir)
		}
		world, err := BuildMirror(in)
		if err != nil {
			t.Fatalf("chir %v: %v", chir, err)
		}
		rep, err := world.Verify(64)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("chir %v: claims failed: %+v", chir, rep.Failures)
		}
		if !rep.StalledForever {
			t.Fatalf("chir %v: keep-direction should stall forever in G'", chir)
		}
		if rep.DistinctVisited > 4 {
			t.Fatalf("chir %v: visited %d nodes of G', expected confinement", chir, rep.DistinctVisited)
		}
	}
}

func TestMirrorClaimsAcrossStallingVictims(t *testing.T) {
	// Algorithms that stall under the one-robot adversary feed the mirror;
	// claims 1-4 must hold for each.
	algs := []robot.Algorithm{
		baseline.KeepDirection,
		core.NoRule3,
		core.PEF3Plus, // with one robot it never meets anyone: pure rule 1
	}
	for _, alg := range algs {
		in, ok := stalledPrefix(t, alg, robot.RightIsCW, 8, 100)
		if !ok {
			t.Logf("%s: no stall (cycling outcome), skipping mirror", alg.Name())
			continue
		}
		world, err := BuildMirror(in)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		rep, err := world.Verify(40)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: claims failed: %+v", alg.Name(), rep.Failures)
		}
	}
}

func TestMirrorPlacementGeometry(t *testing.T) {
	in, ok := stalledPrefix(t, baseline.KeepDirection, robot.RightIsCW, 6, 60)
	if !ok {
		t.Fatal("no stall")
	}
	world, err := BuildMirror(in)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := world.Placements[0], world.Placements[1]
	if p2.Node != sigmaNode(p1.Node) {
		t.Fatalf("placements not mirrored: %d vs %d", p1.Node, p2.Node)
	}
	if p1.Chirality != p2.Chirality.Opposite() {
		t.Fatal("robots must have opposite chirality")
	}
	mr := ring.New(MirrorSize)
	if mr.CWDist(p1.Node, p2.Node)%2 == 0 {
		t.Fatal("initial distance must be odd (Claim 2 base case)")
	}
}

func TestMirrorRejectsBadInput(t *testing.T) {
	in, ok := stalledPrefix(t, baseline.KeepDirection, robot.RightIsCW, 6, 60)
	if !ok {
		t.Fatal("no stall")
	}
	bad := in
	bad.Alg = nil
	if _, err := BuildMirror(bad); err == nil {
		t.Error("nil algorithm accepted")
	}
	bad = in
	bad.StallTime = len(bad.Traj) + 5
	if _, err := BuildMirror(bad); err == nil {
		t.Error("out-of-range stall time accepted")
	}
	bad = in
	bad.MissingSide = 0
	if _, err := BuildMirror(bad); err == nil {
		t.Error("invalid missing side accepted")
	}
	bad = in
	bad.Traj = []int{0, 1, 2, 3}
	bad.States = nil
	bad.StallTime = 3
	if _, err := BuildMirror(bad); err == nil {
		t.Error("three-node trajectory accepted")
	}
}

func TestSigmaInvolutions(t *testing.T) {
	for x := 0; x < MirrorSize; x++ {
		if sigmaNode(sigmaNode(x)) != x {
			t.Fatalf("sigmaNode not an involution at %d", x)
		}
		if sigmaEdge(sigmaEdge(x)) != x {
			t.Fatalf("sigmaEdge not an involution at %d", x)
		}
	}
	if sigmaNode(mirrorF1) != mirrorF2 {
		t.Fatal("sigma must swap f1' and f2'")
	}
	if sigmaEdge(mirrorCutoff) != mirrorCutoff {
		t.Fatal("sigma must fix the central edge")
	}
}
