package core

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/prng"
	"pef/internal/robot"
)

// A reference is the literal transcription of one algorithm's Compute
// rule: from (dir, memory) and a view it returns the next (dir, memory).
// The rules below are written the way the paper (or the baseline's
// description) states them; each table must reproduce its reference.
type reference func(dir robot.LocalDir, moved bool, view robot.View) (robot.LocalDir, bool)

// algorithm1 is the literal transcription of Algorithm 1:
//
//	1: if HasMovedPreviousStep ∧ ExistsOtherRobotsOnCurrentNode() then
//	2:     dir ← opposite(dir)
//	3: end if
//	4: HasMovedPreviousStep ← ExistsEdge(dir)
//
// Line 4 reads ExistsEdge with the *possibly updated* dir: it predicts
// whether the Move phase of this very round will cross an edge, which is
// exactly "has moved" when the next Look runs.
func algorithm1(dir robot.LocalDir, moved bool, view robot.View) (robot.LocalDir, bool) {
	look := dir // the direction the Look-phase predicates were gathered with
	if moved && view.OtherRobots {
		dir = dir.Opposite()
	}
	return dir, view.ExistsEdge(look, dir)
}

// pef2Rule is Section 4.2: an isolated robot with exactly one adjacent
// edge present points to that edge; otherwise it keeps its direction.
func pef2Rule(dir robot.LocalDir, _ bool, view robot.View) (robot.LocalDir, bool) {
	if view.OtherRobots {
		return dir, false
	}
	if view.EdgeOpp && !view.EdgeDir {
		return dir.Opposite(), false
	}
	return dir, false
}

// pef1Rule is Section 5.2: point to a present edge, the current one first.
// Bounce-on-missing states the same rule: turn back exactly when the
// pointed edge is absent and the other one present.
func pef1Rule(dir robot.LocalDir, _ bool, view robot.View) (robot.LocalDir, bool) {
	if !view.EdgeDir && view.EdgeOpp {
		return dir.Opposite(), false
	}
	return dir, false
}

// keepRule never turns: PEF_3+ without Rule 3, and keep-direction.
func keepRule(dir robot.LocalDir, _ bool, _ robot.View) (robot.LocalDir, bool) {
	return dir, false
}

// towerRule turns in every tower: PEF_3+ with Rule 2 inverted.
func towerRule(dir robot.LocalDir, _ bool, view robot.View) (robot.LocalDir, bool) {
	if view.OtherRobots {
		return dir.Opposite(), false
	}
	return dir, false
}

// towerBounceRule turns back in a tower or when blocked.
func towerBounceRule(dir robot.LocalDir, _ bool, view robot.View) (robot.LocalDir, bool) {
	if view.OtherRobots || (!view.EdgeDir && view.EdgeOpp) {
		return dir.Opposite(), false
	}
	return dir, false
}

// oscillatorRule turns every round.
func oscillatorRule(dir robot.LocalDir, _ bool, _ robot.View) (robot.LocalDir, bool) {
	return dir.Opposite(), false
}

// references pairs every table with its literal rule; memory marks the
// rule that keeps HasMovedPreviousStep.
var references = []struct {
	table  robot.Table
	ref    reference
	memory bool
}{
	{PEF3Plus, algorithm1, true},
	{PEF2, pef2Rule, false},
	{PEF1, pef1Rule, false},
	{NoRule3, keepRule, false},
	{NoRule2, towerRule, false},
	{baseline.KeepDirection, keepRule, false},
	{baseline.BounceOnMissing, pef1Rule, false},
	{baseline.TowerBounce, towerBounceRule, false},
	{baseline.Oscillator, oscillatorRule, false},
}

// inputs enumerates the 16 (memory, view) inputs of a table.
func inputs(yield func(moved bool, v robot.View)) {
	for i := 0; i < 16; i++ {
		yield(i&8 != 0, robot.View{OtherRobots: i&4 != 0, EdgeDir: i&2 != 0, EdgeOpp: i&1 != 0})
	}
}

// TestTablesMatchReferences checks each table's flip and next memory
// against its literal rule on all 16 inputs (from either dir), and its
// scalar core's dir and State() string against the rule along a random
// view sequence that visits every reachable (state, view) pair.
func TestTablesMatchReferences(t *testing.T) {
	if len(references) != len(tables()) {
		t.Fatalf("%d references for %d tables", len(references), len(tables()))
	}
	render := func(dir robot.LocalDir, moved, memory bool) string {
		if memory {
			return robot.DirMovedState(dir, moved).String()
		}
		return robot.DirState(dir).String()
	}
	for _, r := range references {
		t.Run(r.table.Name(), func(t *testing.T) {
			inputs(func(moved bool, v robot.View) {
				flip, next := r.table.Rule(moved, v)
				for _, dir := range []robot.LocalDir{robot.Left, robot.Right} {
					wantDir, wantMoved := r.ref(dir, moved, v)
					if flip != (wantDir != dir) || next != wantMoved {
						t.Errorf("moved=%t %+v dir=%s: flip=%t next=%t, want dir %s moved %t",
							moved, v, dir, flip, next, wantDir, wantMoved)
					}
				}
			})
			c := r.table.NewCore()
			dir, moved := robot.Left, false
			src := prng.NewSource(0x7AB1E)
			for step := 0; step < 256; step++ {
				if got, want := c.State().String(), render(dir, moved, r.memory); got != want || c.Dir() != dir {
					t.Fatalf("step %d: state %q dir %s, want %q", step, got, c.Dir(), want)
				}
				x := src.Uint64()
				v := robot.View{EdgeDir: x&1 != 0, EdgeOpp: x&2 != 0, OtherRobots: x&4 != 0}
				c.Compute(v)
				dir, moved = r.ref(dir, moved, v)
			}
		})
	}
}

// TestCoincidingTables pins two identities the table form exposes: the
// Rule-3 ablation is keep-direction, and PEF_1 is bounce-on-missing. Each
// pair is one table under two names, which Same reports (the lane engine
// evaluates such a pair once).
func TestCoincidingTables(t *testing.T) {
	if PEF3Plus.Same(NoRule3) || PEF1.Same(PEF2) {
		t.Error("Same holds for tables with different rules")
	}
	for _, pair := range [][2]robot.Table{
		{NoRule3, baseline.KeepDirection},
		{PEF1, baseline.BounceOnMissing},
	} {
		a, b := pair[0], pair[1]
		if a.Name() == b.Name() {
			t.Errorf("%s: both tables carry one name", a.Name())
		}
		if !a.Same(b) {
			t.Errorf("%s and %s: Same = false for one rule", a.Name(), b.Name())
		}
		inputs(func(moved bool, v robot.View) {
			af, an := a.Rule(moved, v)
			bf, bn := b.Rule(moved, v)
			if af != bf || an != bn {
				t.Errorf("%s and %s differ on moved=%t %+v", a.Name(), b.Name(), moved, v)
			}
		})
	}
}
