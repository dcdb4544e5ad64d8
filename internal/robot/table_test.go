package robot

import "testing"

// maskTable builds the table whose truth tables are exactly flip and next.
func maskTable(flip, next uint16) Table {
	return NewTable("masks", func(moved bool, v View) (bool, bool) {
		i := index(moved, v)
		return flip>>i&1 != 0, next>>i&1 != 0
	})
}

// TestTableLanesMatchRule runs every flip truth table (paired with a
// scrambled next table) through the lane circuit with lane i holding
// input i, so each circuit is checked on all 16 inputs at once.
func TestTableLanesMatchRule(t *testing.T) {
	var view LaneView
	var moved uint64
	for i := uint(0); i < 16; i++ {
		in := uint64(1) << i
		if i&8 != 0 {
			moved |= in
		}
		if i&4 != 0 {
			view.OtherRobots |= in
		}
		if i&2 != 0 {
			view.EdgeDir |= in
		}
		if i&1 != 0 {
			view.EdgeOpp |= in
		}
	}
	for m := 0; m < 1<<16; m++ {
		flip, next := uint16(m), uint16(m*40503+12345)
		tab := maskTable(flip, next)
		if len(tab.gates) > maxGates {
			t.Fatalf("flip %#04x next %#04x: %d gates, bound %d", flip, next, len(tab.gates), maxGates)
		}
		gotFlip, gotNext := tab.Lanes(moved, view)
		if uint16(gotFlip) != flip || uint16(gotNext) != next {
			t.Fatalf("flip %#04x next %#04x: lanes give %#04x %#04x", flip, next, gotFlip, gotNext)
		}
	}
}

// TestTableCircuitFolds checks that compilation folds constants: PEF_3+'s
// flip is the single gate moved ? OtherRobots : 0, that is moved &
// OtherRobots, its next memory two muxes, and rules without a live input
// compile to no gate at all.
func TestTableCircuitFolds(t *testing.T) {
	pef3 := NewTable("pef3+", func(moved bool, v View) (bool, bool) {
		if moved && v.OtherRobots {
			return true, v.EdgeOpp
		}
		return false, v.EdgeDir
	})
	if g := pef3.gates[pef3.flipReg-firstGate]; g != (gate{regMoved, regOthers, regZero}) {
		t.Errorf("PEF_3+ flip compiles to %+v, want moved & OtherRobots", g)
	}
	if len(pef3.gates) != 3 {
		t.Errorf("PEF_3+ compiles to %d gates, want 3: %+v", len(pef3.gates), pef3.gates)
	}
	keep := NewTable("keep", func(bool, View) (bool, bool) { return false, false })
	turn := NewTable("turn", func(bool, View) (bool, bool) { return true, false })
	if len(keep.gates)+len(turn.gates) != 0 || keep.flipReg != regZero || turn.flipReg != regOnes {
		t.Errorf("constant rules compile to gates: keep %+v, turn %+v", keep, turn)
	}
	bounce := NewTable("bounce", func(_ bool, v View) (bool, bool) { return !v.EdgeDir && v.EdgeOpp, false })
	if len(bounce.gates) != 1 || bounce.gates[0] != (gate{regEdgeDir, regZero, regEdgeOpp}) {
		t.Errorf("bounce compiles to %+v, want EdgeOpp &^ EdgeDir", bounce.gates)
	}
}

// TestTableCoreState checks the scalar core's initial state and rendering:
// StateDirMoved only when the rule ever sets the memory bit.
func TestTableCoreState(t *testing.T) {
	withMemory := NewTable("m", func(_ bool, v View) (bool, bool) { return false, v.EdgeDir })
	dirOnly := NewTable("d", func(bool, View) (bool, bool) { return true, false })
	a, b := withMemory.NewCore(), dirOnly.NewCore()
	if a.State().String() != "dir=left,moved=false" || b.State().String() != "dir=left" {
		t.Fatalf("initial states %q, %q", a.State(), b.State())
	}
	a.Compute(View{EdgeDir: true})
	b.Compute(View{})
	if a.State().String() != "dir=left,moved=true" || b.State().String() != "dir=right" || b.Dir() != Right {
		t.Fatalf("after one round %q, %q", a.State(), b.State())
	}
	if other := dirOnly.NewCore(); other.Dir() != Left {
		t.Fatal("cores share state")
	}
}
