package convergence

import (
	"testing"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

func TestNewSequenceValidation(t *testing.T) {
	if _, err := NewSequence(); err == nil {
		t.Fatal("empty sequence accepted")
	}
	a, b := dyngraph.NewRecorded(4), dyngraph.NewRecorded(5)
	if _, err := NewSequence(a, b); err == nil {
		t.Fatal("mixed ring sizes accepted")
	}
	seq, err := NewSequence(a)
	if err != nil || seq.Len() != 1 {
		t.Fatalf("singleton sequence: %v", err)
	}
}

func TestPrefixLengthsAndGrowth(t *testing.T) {
	mk := func(flipAt int) *dyngraph.Recorded {
		g := dyngraph.NewRecorded(4)
		for tt := 0; tt < 10; tt++ {
			if tt < flipAt {
				g.Append(ring.FullEdgeSet(4))
			} else {
				g.Append(ring.EdgeSetOf(4, 0))
			}
		}
		return g
	}
	seq, err := NewSequence(mk(2), mk(5), mk(8))
	if err != nil {
		t.Fatal(err)
	}
	ls := seq.PrefixLengths()
	if len(ls) != 2 || ls[0] != 2 || ls[1] != 5 {
		t.Fatalf("prefixes = %v", ls)
	}
	if !seq.GrowingPrefixes() {
		t.Fatal("growing prefixes not detected")
	}
	// Three graphs with two equal consecutive prefixes: not growing.
	bad, err := NewSequence(mk(5), mk(5), mk(5))
	if err != nil {
		t.Fatal(err)
	}
	if bad.GrowingPrefixes() {
		t.Fatal("constant prefixes reported growing")
	}
}

func TestPhaseBoundaries(t *testing.T) {
	g := dyngraph.NewRecorded(3)
	sets := []ring.EdgeSet{
		ring.FullEdgeSet(3), ring.FullEdgeSet(3),
		ring.EdgeSetOf(3, 0), ring.EdgeSetOf(3, 0),
		ring.FullEdgeSet(3),
	}
	for _, s := range sets {
		g.Append(s)
	}
	bs := PhaseBoundaries(g)
	if len(bs) != 2 || bs[0] != 2 || bs[1] != 4 {
		t.Fatalf("boundaries = %v", bs)
	}
}

func TestSequenceFromSchedule(t *testing.T) {
	g := dyngraph.NewRecorded(3)
	for tt := 0; tt < 6; tt++ {
		if tt < 3 {
			g.Append(ring.EdgeSetOf(3, 0, 1))
		} else {
			g.Append(ring.EdgeSetOf(3, 2))
		}
	}
	seq := SequenceFromSchedule(g, []int{3})
	if seq.Len() != 2 {
		t.Fatalf("len = %d", seq.Len())
	}
	// G_0 is fully static.
	if !seq.Graph(0).Snapshot(0).IsFull() || !seq.Graph(0).Snapshot(5).IsFull() {
		t.Fatal("G_0 must be the static ring")
	}
	// G_1 follows the schedule before the boundary, static after.
	if !seq.Graph(1).Snapshot(2).Equal(ring.EdgeSetOf(3, 0, 1)) {
		t.Fatal("G_1 prefix wrong")
	}
	if !seq.Graph(1).Snapshot(3).IsFull() {
		t.Fatal("G_1 suffix must be full")
	}
}

func TestVerifyExecutionConvergenceOnRealSchedule(t *testing.T) {
	// Realize a Theorem 5.1 schedule against a live victim and check the
	// [5] theorem on it.
	alg := baseline.BounceOnMissing
	adv := adversary.NewOneRobotConfinement(5, 0, 0)
	placements := []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(120)
	g := sim.RecordedGraph()
	bs := PhaseBoundaries(g)
	if len(bs) < 4 {
		t.Fatalf("only %d phase boundaries", len(bs))
	}
	seq := SequenceFromSchedule(g, bs[:4])
	if !seq.GrowingPrefixes() {
		t.Fatalf("prefixes not growing: %v", seq.PrefixLengths())
	}
	rep, err := VerifyExecutionConvergence(alg, placements, seq, g, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("convergence violated: %+v", rep.Failures)
	}
	if len(rep.ExecutionPrefixes) != seq.Len() {
		t.Fatalf("prefix counts: %+v", rep)
	}
	// Execution agreement must be monotone along the sequence.
	for i := 1; i < len(rep.ExecutionPrefixes); i++ {
		if rep.ExecutionPrefixes[i] < rep.ExecutionPrefixes[i-1] {
			t.Fatalf("execution prefixes not monotone: %v", rep.ExecutionPrefixes)
		}
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	// A sequence unrelated to the limit graph: executions diverge before
	// the (zero-length) graph prefix cannot be violated, so craft a case
	// where the graph prefix is long but executions differ — impossible
	// for deterministic algorithms, so instead check the honest case:
	// graphs with zero common prefix yield OK trivially.
	gA := dyngraph.NewRecorded(4)
	gB := dyngraph.NewRecorded(4)
	for tt := 0; tt < 8; tt++ {
		gA.Append(ring.EdgeSetOf(4, 0))
		gB.Append(ring.EdgeSetOf(4, 1, 2, 3))
	}
	seq, err := NewSequence(gA)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyExecutionConvergence(baseline.KeepDirection,
		[]fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}, seq, gB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("zero-prefix case must hold vacuously: %+v", rep)
	}
	if rep.GraphPrefixes[0] != 0 {
		t.Fatalf("graph prefix = %d, want 0", rep.GraphPrefixes[0])
	}
}
