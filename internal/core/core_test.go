package core

import (
	"testing"

	"pef/internal/robot"
)

func TestPEF3PlusComputeTable(t *testing.T) {
	// Each case starts from a fresh core driven through a sequence of
	// views; we check the resulting dir and HasMovedPreviousStep.
	type step struct {
		view      robot.View
		wantDir   robot.LocalDir
		wantState string
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "keeps direction while alone",
			steps: []step{
				{robot.View{EdgeDir: true}, robot.Left, "dir=left,moved=true"},
				{robot.View{EdgeDir: true}, robot.Left, "dir=left,moved=true"},
			},
		},
		{
			name: "blocked robot records no move",
			steps: []step{
				{robot.View{EdgeDir: false, EdgeOpp: true}, robot.Left, "dir=left,moved=false"},
			},
		},
		{
			name: "rule 3: moved into a tower, turn back",
			steps: []step{
				// Round 0: moves (edge present, alone).
				{robot.View{EdgeDir: true}, robot.Left, "dir=left,moved=true"},
				// Round 1: now in a tower having moved: flip. After the
				// flip, the edge on the new direction (EdgeOpp at Look
				// time) decides the next moved flag.
				{robot.View{EdgeDir: true, EdgeOpp: true, OtherRobots: true}, robot.Right, "dir=right,moved=true"},
			},
		},
		{
			name: "rule 2: did not move, tower forms, keep direction",
			steps: []step{
				// Round 0: blocked (no move).
				{robot.View{EdgeDir: false, EdgeOpp: true}, robot.Left, "dir=left,moved=false"},
				// Round 1: another robot arrived; sentinel keeps pointing.
				{robot.View{EdgeDir: false, EdgeOpp: true, OtherRobots: true}, robot.Left, "dir=left,moved=false"},
			},
		},
		{
			name: "flip uses opposite-edge presence for moved flag",
			steps: []step{
				{robot.View{EdgeDir: true}, robot.Left, "dir=left,moved=true"},
				// Flips; new direction's edge (EdgeOpp) is absent: no move.
				{robot.View{EdgeDir: true, EdgeOpp: false, OtherRobots: true}, robot.Right, "dir=right,moved=false"},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			core := PEF3Plus.NewCore()
			if core.Dir() != robot.Left {
				t.Fatal("initial dir must be left")
			}
			for i, s := range c.steps {
				core.Compute(s.view)
				if core.Dir() != s.wantDir {
					t.Fatalf("step %d: dir = %v, want %v", i, core.Dir(), s.wantDir)
				}
				if core.State().String() != s.wantState {
					t.Fatalf("step %d: state = %q, want %q", i, core.State(), s.wantState)
				}
			}
		})
	}
}

func TestPEF2ComputeTable(t *testing.T) {
	cases := []struct {
		name    string
		view    robot.View
		wantDir robot.LocalDir
	}{
		{"no edges: keep", robot.View{}, robot.Left},
		{"both edges: keep", robot.View{EdgeDir: true, EdgeOpp: true}, robot.Left},
		{"only pointed edge: keep", robot.View{EdgeDir: true}, robot.Left},
		{"only opposite edge: flip", robot.View{EdgeOpp: true}, robot.Right},
		{"tower: keep even if opposite-only", robot.View{EdgeOpp: true, OtherRobots: true}, robot.Left},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			core := PEF2.NewCore()
			core.Compute(c.view)
			if core.Dir() != c.wantDir {
				t.Fatalf("dir = %v, want %v", core.Dir(), c.wantDir)
			}
		})
	}
}

func TestPEF1ComputeTable(t *testing.T) {
	cases := []struct {
		name    string
		view    robot.View
		wantDir robot.LocalDir
	}{
		{"no edges: keep", robot.View{}, robot.Left},
		{"pointed edge present: keep", robot.View{EdgeDir: true}, robot.Left},
		{"only opposite: flip", robot.View{EdgeOpp: true}, robot.Right},
		{"both: keep", robot.View{EdgeDir: true, EdgeOpp: true}, robot.Left},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			core := PEF1.NewCore()
			core.Compute(c.view)
			if core.Dir() != c.wantDir {
				t.Fatalf("dir = %v, want %v", core.Dir(), c.wantDir)
			}
		})
	}
}

func TestAblationsDiffer(t *testing.T) {
	// NoRule3 never flips even in a moved-into-tower situation.
	c3 := NoRule3.NewCore()
	c3.Compute(robot.View{EdgeDir: true})
	c3.Compute(robot.View{EdgeDir: true, EdgeOpp: true, OtherRobots: true})
	if c3.Dir() != robot.Left {
		t.Fatal("NoRule3 flipped")
	}
	// NoRule2 flips in a tower even without having moved.
	c2 := NoRule2.NewCore()
	c2.Compute(robot.View{EdgeDir: false, EdgeOpp: true, OtherRobots: true})
	if c2.Dir() != robot.Right {
		t.Fatal("NoRule2 did not flip")
	}
}

func TestNames(t *testing.T) {
	if PEF3Plus.Name() != "pef3+" || PEF2.Name() != "pef2" || PEF1.Name() != "pef1" {
		t.Fatal("unexpected algorithm names")
	}
	if NoRule2.NewCore() == nil || NoRule3.NewCore() == nil {
		t.Fatal("ablations must build cores")
	}
}
