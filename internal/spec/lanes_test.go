package spec

import (
	"testing"

	"pef/internal/fsync"
	"pef/internal/prng"
)

// TestLaneVisitsMatchesScalarTrackers drives LaneVisits and the scalar
// VisitTracker/ConfinementTracker with identical random position streams
// (staggered per-lane horizons included) and requires identical reports —
// including the ExploreViolation strings the oracle ultimately consumes.
func TestLaneVisitsMatchesScalarTrackers(t *testing.T) {
	src := prng.NewSource(0xA11CE)
	lv := NewLaneVisits()
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(14)
		k := 1 + src.Intn(3)
		lanes := 1 + src.Intn(64)
		baseRounds := 1 + src.Intn(40)

		pos := make([][]int, lanes)
		vts := make([]*VisitTracker, lanes)
		cts := make([]*ConfinementTracker, lanes)
		rounds := make([]int, lanes)
		maxRounds := 0
		for l := range pos {
			pos[l] = make([]int, k)
			for i := range pos[l] {
				pos[l][i] = src.Intn(n)
			}
			vts[l] = NewVisitTracker(n)
			cts[l] = NewConfinementTracker()
			rounds[l] = baseRounds + l%3
			if rounds[l] > maxRounds {
				maxRounds = rounds[l]
			}
		}

		lv.Reset(n)
		occ := make([]uint64, n)
		buildOcc := func(mask uint64) {
			for v := range occ {
				occ[v] = 0
			}
			for l := range pos {
				if mask&(1<<uint(l)) == 0 {
					continue
				}
				for _, v := range pos[l] {
					occ[v] |= 1 << uint(l)
				}
			}
		}
		allMask := uint64(1)<<uint(lanes) - 1
		if lanes == 64 {
			allMask = ^uint64(0)
		}
		buildOcc(allMask)
		lv.Record(0, occ, allMask)

		for instant := 1; instant <= maxRounds; instant++ {
			var mask uint64
			for l := range pos {
				if rounds[l] < instant {
					continue
				}
				mask |= 1 << uint(l)
				prev := append([]int(nil), pos[l]...)
				for i := range pos[l] {
					pos[l][i] = (pos[l][i] + src.Intn(3) - 1 + n) % n
				}
				ev := &fsync.RoundEvent{
					Before: &fsync.Snapshot{T: instant - 1, Positions: prev},
					After:  &fsync.Snapshot{T: instant, Positions: append([]int(nil), pos[l]...)},
				}
				vts[l].ObserveRound(ev)
				cts[l].ObserveRound(ev)
			}
			buildOcc(mask)
			lv.Record(instant, occ, mask)
		}

		for l := range pos {
			want := vts[l].Report()
			got := lv.Report(l, rounds[l]+1)
			if got.Nodes != want.Nodes || got.Horizon != want.Horizon ||
				got.Covered != want.Covered || got.CoverTime != want.CoverTime ||
				got.MaxGap != want.MaxGap || got.WorstNode != want.WorstNode {
				t.Fatalf("trial %d lane %d (n=%d k=%d rounds=%d):\nlane   %+v\nscalar %+v",
					trial, l, n, k, rounds[l], got, want)
			}
			for _, bound := range []int{0, want.MaxGap, want.Horizon} {
				if g, w := got.ExploreViolation(2, bound), want.ExploreViolation(2, bound); g != w {
					t.Fatalf("trial %d lane %d bound %d: lane violation %q, scalar %q", trial, l, bound, g, w)
				}
			}
			if g, w := lv.Distinct(l), cts[l].Distinct(); g != w {
				t.Fatalf("trial %d lane %d: lane distinct %d, confinement tracker %d", trial, l, g, w)
			}
			if g, w := lv.Distinct(l), want.Covered; g != w {
				t.Fatalf("trial %d lane %d: distinct %d != covered %d", trial, l, g, w)
			}
		}
	}
}

// TestLaneVisitsRecordAllocFree pins the per-round tracker cost: recording
// an instant must not allocate.
func TestLaneVisitsRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 12
	lv := NewLaneVisits()
	lv.Reset(n)
	occ := make([]uint64, n)
	for v := range occ {
		occ[v] = 0xDEADBEEFCAFE1234 >> uint(v%8)
	}
	instant := 0
	if allocs := testing.AllocsPerRun(200, func() {
		lv.Record(instant, occ, ^uint64(0))
		instant++
	}); allocs != 0 {
		t.Fatalf("LaneVisits.Record allocates %.1f times per instant, want 0", allocs)
	}
}
