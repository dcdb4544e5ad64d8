package pef

import (
	"context"
	"strings"
	"testing"
)

func TestExploreWithDiagramRendersRows(t *testing.T) {
	rep, diagram, err := ExploreWithDiagram(ExploreConfig{
		Robots:    3,
		Algorithm: PEF3Plus(),
		Dynamics:  Static(6),
		Horizon:   50,
		Seed:      3,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 6 {
		t.Fatalf("not covered: %s", rep)
	}
	lines := strings.Split(strings.TrimRight(diagram, "\n"), "\n")
	if len(lines) != 6 { // header + 5 rows
		t.Fatalf("diagram has %d lines:\n%s", len(lines), diagram)
	}
	if !strings.Contains(diagram, "t=   0") {
		t.Fatalf("diagram missing first instant:\n%s", diagram)
	}
}

func TestExploreWithDiagramValidation(t *testing.T) {
	if _, _, err := ExploreWithDiagram(ExploreConfig{}, 4); err == nil {
		t.Error("empty config accepted")
	}
	if _, _, err := ExploreWithDiagram(ExploreConfig{
		Algorithm: PEF1(), Dynamics: Static(4), Robots: 9,
	}, 4); err == nil {
		t.Error("oversized team accepted")
	}
}

func TestConfineWithDiagramVariants(t *testing.T) {
	rep1, d1, err := ConfineOneRobotWithDiagram(PEF3Plus(), 8, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Confined || !strings.Contains(d1, "~") {
		t.Fatalf("one-robot diagram missing removals: %+v\n%s", rep1, d1)
	}
	rep2, d2, err := ConfineTwoRobotsWithDiagram(PEF3Plus(), 8, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Confined || !strings.Contains(d2, "[1]") {
		t.Fatalf("two-robot diagram missing robots: %+v\n%s", rep2, d2)
	}
	// Zero rows disables rendering.
	_, d3, err := ConfineOneRobotWithDiagram(PEF3Plus(), 8, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != "" {
		t.Fatal("rows=0 should render nothing")
	}
	// Rings below the theorems' bounds are errors, not adversary panics.
	if _, _, err := ConfineOneRobotWithDiagram(PEF3Plus(), 2, 50, 4); err == nil || !strings.Contains(err.Error(), "n>=3") {
		t.Errorf("one robot on n=2: err = %v", err)
	}
	if _, _, err := ConfineTwoRobotsWithDiagram(PEF3Plus(), 3, 50, 4); err == nil || !strings.Contains(err.Error(), "n>=4") {
		t.Errorf("two robots on n=3: err = %v", err)
	}
	if _, _, err := ConfineOneRobotWithDiagram(nil, 8, 50, 0); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestPeriodicFacadeValidation(t *testing.T) {
	if _, err := PeriodicTimetable([][]bool{{true}, {false, false}}); err == nil {
		t.Error("never-present edge accepted")
	}
	dyn, err := PeriodicTimetable([][]bool{{true}, {true, false}, {false, true}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(context.Background(), ExploreConfig{
		Robots: 2, Algorithm: PEF3Plus(), Dynamics: dyn, Horizon: 300, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Covered != 3 {
		t.Fatalf("periodic facade run failed: %s", rep)
	}
}
