package spec

// Mechanism-fidelity tests: the intermediate lemmas of Section 3 of the
// paper, checked as runtime behaviour of PEF_3+ on crafted instances (the
// end-to-end theorems are covered by the harness; these tests pin down the
// internal mechanics the proofs rely on).

import (
	"testing"

	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// towerCounter counts rounds whose configuration contains a tower, split
// around a time threshold.
type towerCounter struct {
	threshold    int
	before, from int
}

func (tc *towerCounter) ObserveRound(ev *fsync.RoundEvent) {
	if len(ev.Before.Towers()) == 0 {
		return
	}
	if ev.T < tc.threshold {
		tc.before++
	} else {
		tc.from++
	}
}

// Lemma 3.1: with an eventual missing edge, at least one tower forms.
// Instance: three robots with identical chirality on a static ring never
// meet; once edge 0 disappears forever they must pile up.
func TestLemma31TowerFormsAfterEventualMissing(t *testing.T) {
	const n, from = 8, 40
	g := dyngraph.NewEventualMissing(dyngraph.NewStatic(n), 0, from)
	tc := &towerCounter{threshold: from}
	sim, err := fsync.New(fsync.Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   fsync.Oblivious{G: g},
		Placements: fsync.EvenPlacements(n, 3),
		Observers:  []fsync.Observer{tc},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(600)
	if tc.before != 0 {
		t.Fatalf("same-chirality robots met on the static prefix (%d tower rounds)", tc.before)
	}
	if tc.from == 0 {
		t.Fatal("no tower formed after the edge disappeared (Lemma 3.1)")
	}
}

// Lemma 3.2 (contrapositive reading): an execution without towers explores
// every node. Instance: same-chirality robots on a static ring — no tower
// ever forms, and all nodes are visited infinitely often.
func TestLemma32TowerFreeExecutionExplores(t *testing.T) {
	const n = 9
	vt := NewVisitTracker(n)
	tc := &towerCounter{threshold: 1 << 30}
	sim, err := fsync.New(fsync.Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   fsync.Oblivious{G: dyngraph.NewStatic(n)},
		Placements: fsync.EvenPlacements(n, 3),
		Observers:  []fsync.Observer{vt, tc},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(300)
	if tc.before != 0 {
		t.Fatal("towers formed in the tower-free instance")
	}
	rep := vt.Report()
	if rep.Covered != n || rep.MaxGap > n+1 {
		t.Fatalf("tower-free execution does not explore: %s", rep)
	}
}

// Lemma 3.5: no eventual missing edge + towers still explores. Instance:
// opposite-chirality robots on a static ring meet head-on, break the tower,
// and keep exploring.
func TestLemma35TowersOnRecurrentRingStillExplore(t *testing.T) {
	const n = 8
	vt := NewVisitTracker(n)
	ti := NewTowerInvariants()
	tc := &towerCounter{threshold: 0}
	sim, err := fsync.New(fsync.Config{
		Algorithm: core.PEF3Plus,
		Dynamics:  fsync.Oblivious{G: dyngraph.NewStatic(n)},
		Placements: []fsync.Placement{
			{Node: 0, Chirality: robot.RightIsCW},
			{Node: 3, Chirality: robot.RightIsCCW},
			{Node: 5, Chirality: robot.RightIsCW},
		},
		Observers: []fsync.Observer{vt, ti, tc},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(400)
	if tc.from == 0 {
		t.Fatal("instance was supposed to produce towers")
	}
	if !ti.OK() {
		t.Fatalf("tower invariants violated: %v", ti.Violations())
	}
	rep := vt.Report()
	if rep.Covered != n || rep.MaxGap > 4*n {
		t.Fatalf("exploration with towers failed: %s", rep)
	}
}

// Lemma 3.7 corollary, directional: after stabilization the two sentinels
// stand exactly on the extremities of the missing edge, pointing at it.
func TestLemma37SentinelsOnExtremities(t *testing.T) {
	const n, edge, from = 8, 3, 24
	r := ring.New(n)
	g := dyngraph.NewEventualMissing(
		dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.8, 11), 4, 12), edge, from)
	watch := NewSentinelWatch(r, edge, from)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   fsync.Oblivious{G: g},
		Placements: fsync.EvenPlacements(n, 3),
		Observers:  []fsync.Observer{watch, rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1600)
	rep := watch.Report()
	if !rep.Stabilized {
		t.Fatalf("sentinels never stabilized: %+v", rep)
	}
	// At the last recorded instant, the extremities of the missing edge
	// must both carry a robot pointing at it.
	last := rec.At(rec.Len() - 1)
	u, v := r.EdgeEndpoints(edge)
	foundU, foundV := false, false
	for i, p := range last.Positions {
		if p == u && last.GlobalDirs[i] == ring.CW {
			foundU = true
		}
		if p == v && last.GlobalDirs[i] == ring.CCW {
			foundV = true
		}
	}
	if !foundU || !foundV {
		t.Fatalf("extremities not both posted at the horizon: %v / %v", last.Positions, last.GlobalDirs)
	}
}

// Theorem 4.2 mechanics: on the 3-node ring, a PEF_2 tower breaks in
// finite time (the proof's "any tower is broken in finite time").
func TestPEF2TowersBreak(t *testing.T) {
	const n = 3
	// Force a tower: opposite chirality robots adjacent, walking towards
	// the same node on a static triangle.
	towerAt := -1
	brokenAt := -1
	ob := fsync.ObserverFunc(func(ev *fsync.RoundEvent) {
		if len(ev.After.Towers()) > 0 && towerAt < 0 {
			towerAt = ev.T + 1
		}
		if towerAt >= 0 && brokenAt < 0 && len(ev.After.Towers()) == 0 {
			brokenAt = ev.T + 1
		}
	})
	sim, err := fsync.New(fsync.Config{
		Algorithm: core.PEF2,
		Dynamics:  fsync.Oblivious{G: dyngraph.NewStatic(n)},
		Placements: []fsync.Placement{
			{Node: 0, Chirality: robot.RightIsCW},  // dir left -> global CCW
			{Node: 1, Chirality: robot.RightIsCCW}, // dir left -> global CW
		},
		Observers: []fsync.Observer{ob},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60)
	if towerAt < 0 {
		t.Fatal("head-on robots on a triangle must form a tower")
	}
	if brokenAt < 0 {
		t.Fatalf("tower formed at %d never broke", towerAt)
	}
}
