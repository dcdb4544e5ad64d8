package fsync

import (
	"testing"

	"pef/internal/ring"
	"pef/internal/robot"
)

func TestSnapshotTowersSortedAndComplete(t *testing.T) {
	snap := Snapshot{
		Positions: []int{5, 2, 5, 2, 2, 7},
	}
	towers := snap.Towers()
	if len(towers) != 2 {
		t.Fatalf("towers = %+v", towers)
	}
	if towers[0].Node != 2 || towers[1].Node != 5 {
		t.Fatalf("towers not sorted by node: %+v", towers)
	}
	if len(towers[0].Robots) != 3 || len(towers[1].Robots) != 2 {
		t.Fatalf("tower membership wrong: %+v", towers)
	}
	// Robot indices inside each tower come in increasing robot order.
	if r := towers[0].Robots; r[0] != 1 || r[1] != 3 || r[2] != 4 {
		t.Fatalf("tower robots not in index order: %+v", towers[0])
	}
	if r := towers[1].Robots; r[0] != 0 || r[1] != 2 {
		t.Fatalf("tower robots not in index order: %+v", towers[1])
	}
}

func TestSnapshotTowersNone(t *testing.T) {
	snap := Snapshot{Positions: []int{0, 1, 2}}
	if len(snap.Towers()) != 0 {
		t.Fatal("towerless configuration reported towers")
	}
}

// TestSnapshotTowersScratchReuse drives the pooled scratch path through
// configurations of different sizes: a large tower computation must not
// leak stale counts into a later small one.
func TestSnapshotTowersScratchReuse(t *testing.T) {
	big := Snapshot{Positions: []int{100, 100, 3, 3, 99}}
	if tw := big.Towers(); len(tw) != 2 || tw[0].Node != 3 || tw[1].Node != 100 {
		t.Fatalf("big towers = %+v", tw)
	}
	small := Snapshot{Positions: []int{3, 4}}
	if tw := small.Towers(); len(tw) != 0 {
		t.Fatalf("stale scratch counts leaked: %+v", tw)
	}
	again := Snapshot{Positions: []int{100, 100}}
	if tw := again.Towers(); len(tw) != 1 || tw[0].Node != 100 {
		t.Fatalf("reused scratch towers = %+v", tw)
	}
}

func TestSnapshotCloneIsDeep(t *testing.T) {
	snap := Snapshot{
		T:          3,
		Positions:  []int{1, 2},
		GlobalDirs: []ring.Direction{ring.CW, ring.CCW},
		States:     []robot.StateCode{robot.DirState(robot.Left), robot.DirState(robot.Right)},
		MovedPrev:  []bool{true, false},
	}
	c := snap.Clone()
	c.Positions[0] = 9
	c.GlobalDirs[0] = ring.CCW
	c.States[0] = robot.DirMovedState(robot.Right, true)
	c.MovedPrev[0] = false
	if snap.Positions[0] != 1 || snap.GlobalDirs[0] != ring.CW ||
		snap.States[0] != robot.DirState(robot.Left) || !snap.MovedPrev[0] {
		t.Fatal("Clone shares storage")
	}
}

// TestSnapshotClonePreservesNilVsEmpty is the regression test for the
// Clone semantics: append([]T(nil), empty...) used to collapse empty
// non-nil slices to nil, making clones compare differently from their
// originals under reflect.DeepEqual.
func TestSnapshotClonePreservesNilVsEmpty(t *testing.T) {
	nilSnap := Snapshot{}
	c := nilSnap.Clone()
	if c.Positions != nil || c.GlobalDirs != nil || c.States != nil || c.MovedPrev != nil {
		t.Fatal("Clone invented slices for a nil snapshot")
	}
	empty := Snapshot{
		Positions:  []int{},
		GlobalDirs: []ring.Direction{},
		States:     []robot.StateCode{},
		MovedPrev:  []bool{},
	}
	c = empty.Clone()
	if c.Positions == nil || c.GlobalDirs == nil || c.States == nil || c.MovedPrev == nil {
		t.Fatal("Clone collapsed empty slices to nil")
	}
}

func TestSnapshotRecorderAccessors(t *testing.T) {
	sr := &SnapshotRecorder{}
	st := func(aux uint64) robot.StateCode { return robot.StateCode{Kind: robot.StateLCG, Aux: aux} }
	mk := func(tt, pos int, aux uint64) *Snapshot {
		return &Snapshot{T: tt, Positions: []int{pos}, States: []robot.StateCode{st(aux)},
			GlobalDirs: []ring.Direction{ring.CW}, MovedPrev: []bool{false}}
	}
	sr.ObserveRound(&RoundEvent{T: 0, Before: mk(0, 4, 0), After: mk(1, 3, 1)})
	sr.ObserveRound(&RoundEvent{T: 1, Before: mk(1, 3, 1), After: mk(2, 2, 2)})
	if sr.Len() != 3 {
		t.Fatalf("Len = %d", sr.Len())
	}
	traj := sr.Trajectory(0)
	if traj[0] != 4 || traj[1] != 3 || traj[2] != 2 {
		t.Fatalf("trajectory = %v", traj)
	}
	states := sr.States(0)
	if states[0] != st(0) || states[2] != st(2) {
		t.Fatalf("states = %v", states)
	}
	if sr.At(1).T != 1 {
		t.Fatalf("At(1).T = %d", sr.At(1).T)
	}
}
