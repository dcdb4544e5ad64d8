package core

import (
	"testing"

	"pef/internal/robot"
)

func TestStateEncodingsAreLocal(t *testing.T) {
	// State strings must never leak global directions: the robots are
	// disoriented, and the mirror construction compares states across
	// opposite-chirality robots.
	algs := []robot.Algorithm{PEF3Plus, PEF2, PEF1, NoRule2, NoRule3}
	for _, alg := range algs {
		c := alg.NewCore()
		c.Compute(robot.View{EdgeDir: true})
		for _, banned := range []string{"CW", "CCW", "clockwise"} {
			if contains(c.State().String(), banned) {
				t.Errorf("%s state %q leaks global direction", alg.Name(), c.State())
			}
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPEF3PlusSequenceAgainstHandTrace(t *testing.T) {
	// A hand-computed 5-round trace of Algorithm 1 for one robot:
	// round 0: alone, edge ahead        -> keep left, moved=true
	// round 1: blocked both sides       -> keep left, moved=false
	// round 2: tower but did not move   -> Rule 2: keep left; opp edge only -> moved=false
	// round 3: alone, edge ahead        -> moved=true
	// round 4: tower and moved          -> Rule 3: flip to right; right edge present -> moved=true
	c := PEF3Plus.NewCore()
	steps := []struct {
		view  robot.View
		state string
	}{
		{robot.View{EdgeDir: true}, "dir=left,moved=true"},
		{robot.View{}, "dir=left,moved=false"},
		{robot.View{EdgeOpp: true, OtherRobots: true}, "dir=left,moved=false"},
		{robot.View{EdgeDir: true}, "dir=left,moved=true"},
		{robot.View{EdgeDir: true, EdgeOpp: true, OtherRobots: true}, "dir=right,moved=true"},
	}
	for i, s := range steps {
		c.Compute(s.view)
		if c.State().String() != s.state {
			t.Fatalf("round %d: state %q, want %q", i, c.State(), s.state)
		}
	}
}
