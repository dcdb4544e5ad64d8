package spec

import (
	"testing"

	"pef/internal/adversary"
	"pef/internal/core"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
)

// TestCheckerStackStepAllocFree is the allocation guard of the possibility
// experiments' full checker stack: Step with the visit tracker, the tower
// invariants and the confinement tracker attached allocates nothing per
// round once warm (the confinement series' amortized growth rounds to
// zero). The eventual-missing ring forms towers inside the measured
// window, so the tower path is timed too. Skipped under -race
// (instrumented allocation counts).
func TestCheckerStackStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 8
	cases := []struct {
		name   string
		dyn    fsync.Dynamics
		towers bool
	}{
		{"eventual-missing", fsync.Oblivious{G: dyngraph.NewEventualMissing(dyngraph.NewStatic(n), 0, 40)}, true},
		{"block-pointed", adversary.NewBlockPointed(n, 3), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ti := NewTowerInvariants()
			sim, err := fsync.New(fsync.Config{
				Algorithm:  core.PEF3Plus,
				Dynamics:   c.dyn,
				Placements: fsync.EvenPlacements(n, 3),
				Observers:  []fsync.Observer{NewVisitTracker(n), ti, NewConfinementTracker()},
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(200) // warm-up: past the edge's disappearance
			towersBefore := ti.TowerRounds()
			if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
				t.Fatalf("Step with the checker stack allocates %v objects per round, want 0", allocs)
			}
			if c.towers && ti.TowerRounds() == towersBefore {
				t.Fatal("no tower formed inside the measured window")
			}
			if !ti.OK() {
				t.Fatalf("tower invariants violated: %v", ti.Violations())
			}
		})
	}
}
