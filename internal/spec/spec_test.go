package spec

import (
	"reflect"
	"strings"
	"testing"

	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// event fabricates a RoundEvent transitioning between two position vectors
// at round t, with the given post-Compute global directions.
func event(t int, n int, before, after []int, dirsAfter []ring.Direction) *fsync.RoundEvent {
	mk := func(tt int, pos []int, dirs []ring.Direction) *fsync.Snapshot {
		s := &fsync.Snapshot{
			T:          tt,
			Positions:  append([]int(nil), pos...),
			GlobalDirs: make([]ring.Direction, len(pos)),
			States:     make([]robot.StateCode, len(pos)),
			MovedPrev:  make([]bool, len(pos)),
		}
		for i := range s.GlobalDirs {
			s.GlobalDirs[i] = ring.CW
			if dirs != nil {
				s.GlobalDirs[i] = dirs[i]
			}
		}
		return s
	}
	return &fsync.RoundEvent{
		T:      t,
		Edges:  ring.FullEdgeSet(n),
		Before: mk(t, before, nil),
		After:  mk(t+1, after, dirsAfter),
		Moved:  make([]bool, len(before)),
	}
}

func TestVisitTrackerCoverAndGaps(t *testing.T) {
	vt := NewVisitTracker(4)
	// Robot sweeps 0,1,2,3 then sits on 3.
	positions := [][]int{{0}, {1}, {2}, {3}, {3}, {3}}
	for i := 0; i+1 < len(positions); i++ {
		vt.ObserveRound(event(i, 4, positions[i], positions[i+1], nil))
	}
	rep := vt.Report()
	if rep.Covered != 4 || rep.CoverTime != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Horizon != 6 {
		t.Fatalf("horizon = %d", rep.Horizon)
	}
	// Node 0 was seen at t=0 only: open gap reaches horizon-1 = 5.
	if rep.MaxGap != 5 || rep.WorstNode != 0 {
		t.Fatalf("gap = %d at node %d", rep.MaxGap, rep.WorstNode)
	}
	if rep.Visits[3] != 3 {
		t.Fatalf("visits = %v", rep.Visits)
	}
	if rep.PerpetuallyExplored(4) {
		t.Fatal("open gap of 5 must fail bound 4")
	}
	if !strings.Contains(rep.String(), "explored 4/4") {
		t.Fatalf("String = %q", rep.String())
	}
}

func TestVisitTrackerTowerCountsOnce(t *testing.T) {
	vt := NewVisitTracker(3)
	vt.ObserveRound(event(0, 3, []int{1, 1}, []int{1, 1}, nil))
	rep := vt.Report()
	if rep.Visits[1] != 2 { // t=0 and t=1, one per instant despite 2 robots
		t.Fatalf("visits = %v", rep.Visits)
	}
}

// TestVisitTrackerThreeRobotTower counts a 3-robot tower as one visit per
// instant, also when it stands on a node visited before and when it splits.
func TestVisitTrackerThreeRobotTower(t *testing.T) {
	vt := NewVisitTracker(5)
	positions := [][]int{{0, 1, 2}, {1, 1, 1}, {1, 1, 1}, {0, 1, 2}}
	for i := 0; i+1 < len(positions); i++ {
		vt.ObserveRound(event(i, 5, positions[i], positions[i+1], nil))
	}
	rep := vt.Report()
	if want := []int{2, 4, 2, 0, 0}; !reflect.DeepEqual(rep.Visits, want) {
		t.Fatalf("visits = %v, want %v", rep.Visits, want)
	}
	// Nodes 0 and 2 were left for t=1,2: a gap of 3 instants; nodes 3 and
	// 4 are never visited, so their gap is the horizon.
	if rep.Covered != 3 || rep.CoverTime != -1 || rep.MaxGap != 4 || rep.WorstNode != 3 {
		t.Fatalf("report = %+v", rep)
	}
	vt2 := NewVisitTracker(3)
	for i := 0; i+1 < len(positions); i++ {
		vt2.ObserveRound(event(i, 3, positions[i], positions[i+1], nil))
	}
	if rep := vt2.Report(); rep.CoverTime != 0 || rep.MaxGap != 3 || rep.WorstNode != 0 {
		t.Fatalf("3-ring report = %+v", rep)
	}
}

func TestVisitTrackerNeverVisited(t *testing.T) {
	vt := NewVisitTracker(3)
	vt.ObserveRound(event(0, 3, []int{0}, []int{0}, nil))
	rep := vt.Report()
	if rep.Covered != 1 || rep.CoverTime != -1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MaxGap != rep.Horizon {
		t.Fatalf("unvisited node gap = %d, want horizon %d", rep.MaxGap, rep.Horizon)
	}
}

func TestConfinementTracker(t *testing.T) {
	ct := NewConfinementTracker()
	first := event(0, 8, []int{0, 1}, []int{1, 2}, nil)
	first.Moved[1] = true
	ct.ObserveRound(first)
	ct.ObserveRound(event(1, 8, []int{1, 2}, []int{0, 1}, nil))
	if ct.Distinct() != 3 || !ct.ConfinedTo(3) || ct.ConfinedTo(2) {
		t.Fatalf("distinct = %d", ct.Distinct())
	}
	nodes := ct.VisitedNodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[2] != 2 {
		t.Fatalf("nodes = %v", nodes)
	}
	if ct.LastMove() != 1 {
		t.Fatalf("last move = %d, want 1 (the round from t=1 flags no move)", ct.LastMove())
	}
}

func TestTowerInvariantsLemma34Violation(t *testing.T) {
	ti := NewTowerInvariants()
	// Three robots on one node: Lemma 3.4 violation.
	ti.ObserveRound(event(4, 5, []int{2, 2, 2}, []int{2, 2, 2}, nil))
	if ti.OK() {
		t.Fatal("triple tower accepted")
	}
	if ti.MaxTowerSize() != 3 || ti.TowerRounds() != 1 {
		t.Fatalf("size=%d rounds=%d", ti.MaxTowerSize(), ti.TowerRounds())
	}
	if !strings.Contains(ti.Violations()[0], "Lemma 3.4") {
		t.Fatalf("violation text: %v", ti.Violations())
	}
}

func TestTowerInvariantsLemma33(t *testing.T) {
	// Two co-located robots with equal directions after Compute: violation.
	ti := NewTowerInvariants()
	ti.ObserveRound(event(2, 5, []int{1, 1}, []int{1, 1}, []ring.Direction{ring.CW, ring.CW}))
	if ti.OK() {
		t.Fatal("same-direction tower accepted")
	}
	// Opposite directions: fine.
	ti2 := NewTowerInvariants()
	ti2.ObserveRound(event(2, 5, []int{1, 1}, []int{1, 1}, []ring.Direction{ring.CW, ring.CCW}))
	if !ti2.OK() {
		t.Fatalf("opposite-direction tower rejected: %v", ti2.Violations())
	}
}

func TestTowerInvariantsCapsViolations(t *testing.T) {
	ti := NewTowerInvariants()
	ti.MaxViolations = 2
	for i := 0; i < 5; i++ {
		ti.ObserveRound(event(i, 5, []int{1, 1, 1}, []int{1, 1, 1}, nil))
	}
	if len(ti.Violations()) != 2 {
		t.Fatalf("violations not capped: %d", len(ti.Violations()))
	}
}

func TestSentinelWatchStabilizes(t *testing.T) {
	r := ring.New(5)
	// Edge 2 joins nodes 2 and 3: the sentinel on 2 points CW, on 3 CCW.
	sw := NewSentinelWatch(r, 2, 3)
	bad := []ring.Direction{ring.CW, ring.CW}
	good := []ring.Direction{ring.CW, ring.CCW}
	mk := func(t int, pos []int, dirs []ring.Direction) *fsync.RoundEvent {
		ev := event(t, 5, pos, pos, dirs)
		// Pre-round snapshot needs the same dirs for the check.
		ev.Before.GlobalDirs = append([]ring.Direction(nil), dirs...)
		return ev
	}
	// Round 0 carries bad directions on both its snapshots (t=0 and t=1);
	// rounds 1 and 2 are good, so the condition holds from t=2 on.
	sw.ObserveRound(mk(0, []int{2, 3}, bad))
	sw.ObserveRound(mk(1, []int{2, 3}, good))
	sw.ObserveRound(mk(2, []int{2, 3}, good))
	rep := sw.Report()
	if !rep.Stabilized {
		t.Fatalf("not stabilized: %+v", rep)
	}
	if rep.StableFrom != 2 {
		t.Fatalf("stable from %d, want 2", rep.StableFrom)
	}
	if !strings.Contains(rep.String(), "stable from") {
		t.Fatalf("String = %q", rep.String())
	}
}

func TestSentinelWatchNeverStable(t *testing.T) {
	r := ring.New(5)
	sw := NewSentinelWatch(r, 2, 3)
	ev := event(0, 5, []int{0, 1}, []int{0, 1}, nil)
	sw.ObserveRound(ev)
	rep := sw.Report()
	if rep.Stabilized {
		t.Fatal("empty extremities reported stable")
	}
	if !strings.Contains(rep.String(), "not stabilized") {
		t.Fatalf("String = %q", rep.String())
	}
}
