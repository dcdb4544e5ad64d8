package baseline

import (
	"testing"

	"pef/internal/robot"
)

func TestSuiteDistinctNamesAndFreshCores(t *testing.T) {
	seen := map[string]bool{}
	for _, alg := range Suite() {
		if seen[alg.Name()] {
			t.Fatalf("duplicate algorithm name %q", alg.Name())
		}
		seen[alg.Name()] = true
		a, b := alg.NewCore(), alg.NewCore()
		if a == b {
			t.Fatalf("%s: NewCore returned shared core", alg.Name())
		}
		if a.Dir() != robot.Left {
			t.Fatalf("%s: initial dir not Left", alg.Name())
		}
		if a.State().String() == "" {
			t.Fatalf("%s: empty state encoding", alg.Name())
		}
	}
	if len(seen) < 7 {
		t.Fatalf("suite has only %d algorithms", len(seen))
	}
}

func TestKeepDirectionNeverFlips(t *testing.T) {
	c := KeepDirection.NewCore()
	views := []robot.View{
		{}, {EdgeDir: true}, {EdgeOpp: true}, {OtherRobots: true},
		{EdgeDir: true, EdgeOpp: true, OtherRobots: true},
	}
	for _, v := range views {
		c.Compute(v)
		if c.Dir() != robot.Left {
			t.Fatalf("flipped on view %+v", v)
		}
	}
}

func TestBounceOnMissing(t *testing.T) {
	c := BounceOnMissing.NewCore()
	c.Compute(robot.View{EdgeDir: true})
	if c.Dir() != robot.Left {
		t.Fatal("flipped while pointed edge present")
	}
	c.Compute(robot.View{EdgeDir: false, EdgeOpp: true})
	if c.Dir() != robot.Right {
		t.Fatal("did not flip when blocked with open opposite")
	}
	c.Compute(robot.View{EdgeDir: false, EdgeOpp: false})
	if c.Dir() != robot.Right {
		t.Fatal("flipped while both edges missing")
	}
}

func TestTowerBounce(t *testing.T) {
	c := TowerBounce.NewCore()
	c.Compute(robot.View{EdgeDir: true, OtherRobots: true})
	if c.Dir() != robot.Right {
		t.Fatal("did not flip in tower")
	}
	c.Compute(robot.View{EdgeDir: false, EdgeOpp: true})
	if c.Dir() != robot.Left {
		t.Fatal("did not flip when blocked")
	}
}

func TestPendulumSweepsAndTurns(t *testing.T) {
	c := Pendulum{M: 2}.NewCore()
	open := robot.View{EdgeDir: true, EdgeOpp: true}
	// Two successful steps pointing Left...
	c.Compute(open)
	c.Compute(open)
	if c.Dir() != robot.Left {
		t.Fatal("turned too early")
	}
	// ...then the third compute turns.
	c.Compute(open)
	if c.Dir() != robot.Right {
		t.Fatalf("did not turn after sweep: %s", c.State())
	}
	// Blocked rounds do not advance the sweep.
	c2 := Pendulum{M: 1}.NewCore()
	blocked := robot.View{EdgeDir: false, EdgeOpp: false}
	for i := 0; i < 5; i++ {
		c2.Compute(blocked)
		if c2.Dir() != robot.Left {
			t.Fatal("blocked pendulum turned")
		}
	}
}

func TestPendulumValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("M=0 accepted")
		}
	}()
	Pendulum{M: 0}.NewCore()
}

func TestDoublingZigzagDoubles(t *testing.T) {
	c := DoublingZigzag{}.NewCore()
	open := robot.View{EdgeDir: true, EdgeOpp: true}
	dirs := []robot.LocalDir{}
	for i := 0; i < 7; i++ {
		c.Compute(open)
		dirs = append(dirs, c.Dir())
	}
	// Sweep 1: L; turn; sweep 2: R,R; turn; sweep 4: L,L,L,L.
	want := []robot.LocalDir{robot.Left, robot.Right, robot.Right, robot.Left, robot.Left, robot.Left, robot.Left}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("dirs = %v, want %v", dirs, want)
		}
	}
}

func TestLCGWalkerDeterministicPerSeed(t *testing.T) {
	a := LCGWalker{Seed: 5}.NewCore()
	b := LCGWalker{Seed: 5}.NewCore()
	for i := 0; i < 64; i++ {
		a.Compute(robot.View{})
		b.Compute(robot.View{})
		if a.Dir() != b.Dir() {
			t.Fatal("same seed diverged")
		}
	}
	// Different seeds should diverge somewhere.
	cDiff := LCGWalker{Seed: 6}.NewCore()
	a2 := LCGWalker{Seed: 5}.NewCore()
	diverged := false
	for i := 0; i < 64; i++ {
		a2.Compute(robot.View{})
		cDiff.Compute(robot.View{})
		if a2.Dir() != cDiff.Dir() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged")
	}
}

func TestOscillatorFlipsEveryRound(t *testing.T) {
	c := Oscillator.NewCore()
	last := c.Dir()
	for i := 0; i < 8; i++ {
		c.Compute(robot.View{})
		if c.Dir() == last {
			t.Fatal("did not flip")
		}
		last = c.Dir()
	}
}
