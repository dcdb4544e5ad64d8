package adversary

import (
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// inPlaceCase is one adaptive adversary with a scalar run that drives it:
// fresh builds a new instance, so several copies can be fed the same
// snapshot stream from the same initial state.
type inPlaceCase struct {
	name       string
	fresh      func() fsync.InPlaceDynamics
	alg        robot.Algorithm
	placements []fsync.Placement
}

func inPlaceCases() []inPlaceCase {
	twoRobots := []fsync.Placement{
		{Node: 0, Chirality: robot.RightIsCW},
		{Node: 1, Chirality: robot.RightIsCW},
	}
	return []inPlaceCase{
		{"block-pointed", func() fsync.InPlaceDynamics { return NewBlockPointed(9, 2) },
			core.PEF3Plus{}, fsync.EvenPlacements(9, 3)},
		{"block-both-sides", func() fsync.InPlaceDynamics { return NewBlockBothSides(9, 3) },
			core.PEF3Plus{}, fsync.EvenPlacements(9, 3)},
		{"confine-one", func() fsync.InPlaceDynamics { return NewOneRobotConfinement(6, 0, 0) },
			baseline.BounceOnMissing{}, []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}},
		{"confine-two", func() fsync.InPlaceDynamics { return NewTwoRobotConfinement(6, 0, 0, 1) },
			baseline.BounceOnMissing{}, twoRobots},
		{"arc-containment", func() fsync.InPlaceDynamics { return NewArcContainment(70, 3, 5, 2) },
			core.PEF3Plus{}, fsync.AdjacentPlacements(70, 3, 4)},
	}
}

// snapshotStream runs the case's scalar simulation for the given number
// of rounds and returns the pre-round snapshot of every round.
func snapshotStream(t *testing.T, c inPlaceCase, rounds int) []fsync.Snapshot {
	t.Helper()
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:  c.alg,
		Dynamics:   c.fresh(),
		Placements: c.placements,
		Observers:  []fsync.Observer{rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(rounds)
	snaps := make([]fsync.Snapshot, rounds)
	for i := range snaps {
		snaps[i] = rec.At(i)
	}
	return snaps
}

// TestEdgesAtIntoMatchesEdgesAt pins the one-body rule: for every adaptive
// adversary, the allocating EdgesAt and the in-place EdgesAtInto produce
// the same presence set round after round on the same snapshot stream.
// The destination arrives dirty: every bit set on even rounds, the
// previous round's set on odd ones.
func TestEdgesAtIntoMatchesEdgesAt(t *testing.T) {
	for _, c := range inPlaceCases() {
		t.Run(c.name, func(t *testing.T) {
			snaps := snapshotStream(t, c, 200)
			viaAt, viaInto := c.fresh(), c.fresh()
			n := viaAt.Ring().Edges()
			dst := ring.NewEdgeSet(n)
			distinct := map[string]bool{}
			for r, snap := range snaps {
				want := viaAt.EdgesAt(r, snap)
				if r%2 == 0 {
					dst.Fill()
				}
				viaInto.EdgesAtInto(r, snap, &dst)
				if !dst.Equal(want) || dst.Count() != want.Count() {
					t.Fatalf("round %d: EdgesAtInto = %v, EdgesAt = %v", r, dst, want)
				}
				distinct[want.String()] = true
			}
			if len(distinct) < 2 {
				t.Fatalf("the snapshot stream exercised only %d presence set(s)", len(distinct))
			}
		})
	}
}

// TestEdgesAtIntoAllocFree guards the scalar round of adaptive dynamics:
// writing E_t into a caller-provided set allocates nothing. Skipped under
// -race (instrumented allocation counts).
func TestEdgesAtIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range inPlaceCases() {
		t.Run(c.name, func(t *testing.T) {
			snaps := snapshotStream(t, c, 64)
			adv := c.fresh()
			dst := ring.NewEdgeSet(adv.Ring().Edges())
			r := 0
			allocs := testing.AllocsPerRun(len(snaps)-1, func() {
				adv.EdgesAtInto(r, snaps[r], &dst)
				r++
			})
			if allocs != 0 {
				t.Fatalf("EdgesAtInto allocates %v objects per round, want 0", allocs)
			}
		})
	}
}
