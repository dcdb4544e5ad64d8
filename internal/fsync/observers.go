package fsync

import "pef/internal/robot"

// SnapshotRecorder is an Observer keeping a full per-instant snapshot
// history (including the initial configuration). It backs the trajectory
// extraction of the Lemma 4.1 mirror pipeline and the space-time renderers.
type SnapshotRecorder struct {
	snaps []Snapshot
}

// ObserveRound implements Observer.
func (sr *SnapshotRecorder) ObserveRound(ev *RoundEvent) {
	if len(sr.snaps) == 0 {
		sr.snaps = append(sr.snaps, ev.Before.Clone())
	}
	sr.snaps = append(sr.snaps, ev.After.Clone())
}

// Len returns the number of recorded instants.
func (sr *SnapshotRecorder) Len() int { return len(sr.snaps) }

// At returns the snapshot of instant t. It panics on out-of-range t, which
// is always a harness bug.
func (sr *SnapshotRecorder) At(t int) Snapshot { return sr.snaps[t] }

// Trajectory returns robot idx's node at every recorded instant.
func (sr *SnapshotRecorder) Trajectory(idx int) []int {
	out := make([]int, len(sr.snaps))
	for t, s := range sr.snaps {
		out[t] = s.Positions[idx]
	}
	return out
}

// States returns robot idx's persistent-state codes at every instant.
func (sr *SnapshotRecorder) States(idx int) []robot.StateCode {
	out := make([]robot.StateCode, len(sr.snaps))
	for t, s := range sr.snaps {
		out[t] = s.States[idx]
	}
	return out
}
