package spec

import (
	"fmt"
	"slices"
	"testing"

	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
)

// refTowerInvariants is the reference checker the allocation-free
// TowerInvariants is tested against: the same two lemmas, read off
// Snapshot.Towers().
type refTowerInvariants struct {
	max        int
	violations []string
	towerRound int
	maxSize    int
}

func (ref *refTowerInvariants) ObserveRound(ev *fsync.RoundEvent) {
	towers := ev.Before.Towers()
	if len(towers) > 0 {
		ref.towerRound++
	}
	for _, tw := range towers {
		if len(tw.Robots) > ref.maxSize {
			ref.maxSize = len(tw.Robots)
		}
		if len(tw.Robots) >= 3 {
			ref.violate("t=%d: tower of %d robots on node %d (Lemma 3.4)", ev.T, len(tw.Robots), tw.Node)
			continue
		}
		a, b := tw.Robots[0], tw.Robots[1]
		if da, db := ev.After.GlobalDirs[a], ev.After.GlobalDirs[b]; da == db {
			ref.violate("t=%d: tower robots %d,%d on node %d both consider %s after Compute (Lemma 3.3)",
				ev.T, a, b, tw.Node, da)
		}
	}
}

func (ref *refTowerInvariants) violate(format string, args ...interface{}) {
	if len(ref.violations) < ref.max {
		ref.violations = append(ref.violations, fmt.Sprintf(format, args...))
	}
}

// TestTowerInvariantsMatchReference feeds random rounds (n <= 8, k <= 6,
// so towers of 3+ robots and several towers per round are common) to the
// checker and to the Towers-based reference, with random post-Compute
// directions, and requires identical violations, tower rounds and maximum
// tower size.
func TestTowerInvariantsMatchReference(t *testing.T) {
	src := prng.NewSource(18)
	triples, multi := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + src.Intn(7)
		k := 1 + src.Intn(6)
		maxViolations := 1 << 20
		if trial%4 == 0 {
			maxViolations = 0 // the default cap
		}
		ti := &TowerInvariants{MaxViolations: maxViolations}
		ref := &refTowerInvariants{max: maxViolations}
		if ref.max == 0 {
			ref.max = 32
		}
		before := &fsync.Snapshot{Positions: make([]int, k)}
		after := &fsync.Snapshot{GlobalDirs: make([]ring.Direction, k)}
		ev := &fsync.RoundEvent{Before: before, After: after}
		for round := 0; round < 50; round++ {
			ev.T, before.T, after.T = round, round, round+1
			for i := range before.Positions {
				before.Positions[i] = src.Intn(n)
				after.GlobalDirs[i] = ring.CW
				if src.Bool(0.5) {
					after.GlobalDirs[i] = ring.CCW
				}
			}
			towers := before.Towers()
			if len(towers) > 1 {
				multi++
			}
			for _, tw := range towers {
				if len(tw.Robots) >= 3 {
					triples++
				}
			}
			ti.ObserveRound(ev)
			ref.ObserveRound(ev)
		}
		if got, want := ti.Violations(), ref.violations; !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): violations\n%q\nwant\n%q", trial, n, k, got, want)
		}
		if ti.TowerRounds() != ref.towerRound || ti.MaxTowerSize() != ref.maxSize {
			t.Fatalf("trial %d (n=%d k=%d): towerRounds=%d maxSize=%d, want %d and %d",
				trial, n, k, ti.TowerRounds(), ti.MaxTowerSize(), ref.towerRound, ref.maxSize)
		}
	}
	if triples == 0 || multi == 0 {
		t.Fatalf("random rounds formed %d towers of 3+ robots and %d multi-tower rounds; want both > 0", triples, multi)
	}
}
