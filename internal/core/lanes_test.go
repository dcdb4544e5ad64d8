package core

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/prng"
	"pef/internal/robot"
)

// tables lists every algorithm written as a rule table: the paper's three,
// the two E-X3 ablations and the four memoryless baselines.
func tables() []robot.Table {
	return []robot.Table{
		PEF3Plus, PEF2, PEF1, NoRule3, NoRule2,
		baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
	}
}

// TestLaneCoresMatchScalarCores drives each table's lane circuit and 64
// independent scalar cores through the same random view sequences and
// checks the dir and memory words agree after every step. Sixty-four
// random lanes over 256 steps cover every reachable (state, view)
// transition of these tiny state machines many times over.
func TestLaneCoresMatchScalarCores(t *testing.T) {
	for _, alg := range tables() {
		t.Run(alg.Name(), func(t *testing.T) {
			src := prng.NewSource(0x1A9E5 ^ uint64(len(alg.Name())))
			var dirRight, moved uint64 // every lane starts Left, memory clear
			scalars := make([]robot.Core, 64)
			for l := range scalars {
				scalars[l] = alg.NewCore()
			}
			for step := 0; step < 256; step++ {
				view := robot.LaneView{
					EdgeDir:     src.Uint64(),
					EdgeOpp:     src.Uint64(),
					OtherRobots: src.Uint64(),
				}
				var flip uint64
				flip, moved = alg.Lanes(moved, view)
				dirRight ^= flip
				var wantDir, wantMoved uint64
				for l, c := range scalars {
					c.Compute(robot.View{
						EdgeDir:     view.EdgeDir&(1<<uint(l)) != 0,
						EdgeOpp:     view.EdgeOpp&(1<<uint(l)) != 0,
						OtherRobots: view.OtherRobots&(1<<uint(l)) != 0,
					})
					if c.Dir() == robot.Right {
						wantDir |= 1 << uint(l)
					}
					if c.State().Flag {
						wantMoved |= 1 << uint(l)
					}
				}
				if dirRight != wantDir || moved != wantMoved {
					t.Fatalf("step %d: dirRight = %#x, moved = %#x, want %#x, %#x",
						step, dirRight, moved, wantDir, wantMoved)
				}
			}
		})
	}
}
