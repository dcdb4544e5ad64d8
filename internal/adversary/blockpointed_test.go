package adversary

import (
	"fmt"
	"testing"

	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
)

// refUpdateRuns is the whole-ring counter update the budgeted adversaries
// ran before their absence lists: every edge is reset or advanced every
// round.
func refUpdateRuns(run []int, edges ring.EdgeSet) {
	for e := range run {
		if edges.Contains(e) {
			run[e] = 0
		} else {
			run[e]++
		}
	}
}

// refBlock is the reference form of BlockPointed (bothSides false) and
// BlockBothSides (bothSides true) over refUpdateRuns.
type refBlock struct {
	r         ring.Ring
	budget    int
	bothSides bool
	run       []int
}

func (a *refBlock) edgesAtInto(snap *fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	for i, pos := range snap.Positions {
		dirs := []ring.Direction{snap.GlobalDirs[i]}
		if a.bothSides {
			dirs = []ring.Direction{ring.CW, ring.CCW}
		}
		for _, d := range dirs {
			if e := a.r.EdgeTowards(pos, d); a.run[e] < a.budget {
				dst.Remove(e)
			}
		}
	}
	refUpdateRuns(a.run, *dst)
}

// TestAbsenceRunsMatchWholeRingUpdate feeds random snapshots — towers and
// robots pointing at the same edge included — to both budgeted adversaries
// and to their whole-ring reference, and requires the same presence set
// every round.
func TestAbsenceRunsMatchWholeRingUpdate(t *testing.T) {
	for _, bothSides := range []bool{false, true} {
		for _, n := range []int{3, 4, 9, 70} {
			for _, budget := range []int{1, 2, 5} {
				t.Run(fmt.Sprintf("both=%v/n=%d/budget=%d", bothSides, n, budget), func(t *testing.T) {
					var adv fsync.Dynamics = NewBlockPointed(n, budget)
					if bothSides {
						adv = NewBlockBothSides(n, budget)
					}
					r := ring.New(n)
					ref := &refBlock{r: r, budget: budget, bothSides: bothSides, run: make([]int, r.Edges())}
					src := prng.NewSource(uint64(n*31 + budget))
					k := 1 + src.Intn(n-1)
					snap := fsync.Snapshot{Positions: make([]int, k), GlobalDirs: make([]ring.Direction, k)}
					got, want := ring.NewEdgeSet(r.Edges()), ring.NewEdgeSet(r.Edges())
					for round := 0; round < 2000; round++ {
						for i := range snap.Positions {
							// A narrow band of nodes makes shared edges common.
							snap.Positions[i] = src.Intn(min(n, 4))
							snap.GlobalDirs[i] = ring.CW
							if src.Intn(2) == 0 {
								snap.GlobalDirs[i] = ring.CCW
							}
						}
						adv.EdgesAtInto(round, &snap, &got)
						ref.edgesAtInto(&snap, &want)
						if !got.Equal(want) {
							t.Fatalf("round %d, positions %v dirs %v: got %v, reference %v",
								round, snap.Positions, snap.GlobalDirs, got, want)
						}
					}
				})
			}
		}
	}
}
