package adversary

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// TwoRobotConfinement is the Theorem 4.1 adversary (Figure 2). With robot
// r1 initially on node u and r2 on node v = u+1 (clockwise), and w = u+2,
// it cycles through four phases; each phase blocks a set of edges until its
// watched robot is forced across the single edge left open to it:
//
//	phase 0: block {e_ul, e_vl}            — r2 forced v → w, r1 boxed on u
//	phase 1: block {e_ul, e_wl, e_wr}      — r1 forced u → v, r2 boxed on w
//	phase 2: block {e_wl, e_wr}            — r1 forced v → u, r2 boxed on w
//	phase 3: block {e_ul, e_ur, e_wr}      — r2 forced w → v, r1 boxed on u
//
// (e_xl / e_xr denote the counter-clockwise / clockwise adjacent edges of
// node x; e_ur = e_vl and e_vr = e_wl on the ring.) After phase 3 the
// configuration is again (r1@u, r2@v) and the cycle repeats: the robots
// visit only {u, v, w} forever while every edge keeps reappearing between
// phases — the realized graph converges to the paper's Gω.
type TwoRobotConfinement struct {
	r       ring.Ring
	u, v, w int
	r1, r2  int // robot indices

	phase int
}

// NewTwoRobotConfinement builds the adversary on an n-node ring (n >= 4)
// for robots r1Idx (initially on node u) and r2Idx (initially on node u+1).
func NewTwoRobotConfinement(n, u, r1Idx, r2Idx int) *TwoRobotConfinement {
	r := ring.New(n)
	if n < 4 {
		panic(fmt.Sprintf("adversary: Theorem 4.1 needs n >= 4, got %d", n))
	}
	if !r.ValidNode(u) {
		panic(fmt.Sprintf("adversary: invalid start node %d", u))
	}
	if r1Idx == r2Idx {
		panic("adversary: the two watched robots must be distinct")
	}
	return &TwoRobotConfinement{
		r: r, u: u, v: r.Next(u, ring.CW), w: r.Walk(u, 2, ring.CW),
		r1: r1Idx, r2: r2Idx,
	}
}

// Ring implements fsync.Dynamics.
func (a *TwoRobotConfinement) Ring() ring.Ring { return a.r }

// watchedTarget returns, per phase, the robot the adversary is waiting on
// and the node whose reaching completes the phase.
func (a *TwoRobotConfinement) watchedTarget() (robotIdx, target int) {
	switch a.phase {
	case 0:
		return a.r2, a.w
	case 1:
		return a.r1, a.v
	case 2:
		return a.r1, a.u
	default:
		return a.r2, a.v
	}
}

// removeBlocked deletes from dst the edges removed during the current
// phase.
func (a *TwoRobotConfinement) removeBlocked(dst *ring.EdgeSet) {
	eul := a.r.EdgeTowards(a.u, ring.CCW)
	eur := a.r.EdgeTowards(a.u, ring.CW)
	evl := eur
	ewl := a.r.EdgeTowards(a.w, ring.CCW)
	ewr := a.r.EdgeTowards(a.w, ring.CW)
	switch a.phase {
	case 0:
		dst.Remove(eul)
		dst.Remove(evl)
	case 1:
		dst.Remove(eul)
		dst.Remove(ewl)
		dst.Remove(ewr)
	case 2:
		dst.Remove(ewl)
		dst.Remove(ewr)
	default:
		dst.Remove(eul)
		dst.Remove(eur)
		dst.Remove(ewr)
	}
}

// EdgesAtInto implements fsync.Dynamics.
func (a *TwoRobotConfinement) EdgesAtInto(t int, snap *fsync.Snapshot, dst *ring.EdgeSet) {
	watched, target := a.watchedTarget()
	if snap.Positions[watched] == target {
		a.phase = (a.phase + 1) % 4
	}
	a.guard(snap, a.r1, t)
	a.guard(snap, a.r2, t)
	dst.Fill()
	a.removeBlocked(dst)
}

// guard panics if robot idx ever leaves {u, v, w}: by construction that
// is impossible, so an escape means a bug in the schedule, which must not
// be reported as an algorithm win.
func (a *TwoRobotConfinement) guard(snap *fsync.Snapshot, idx, t int) {
	p := snap.Positions[idx]
	if p != a.u && p != a.v && p != a.w {
		panic(fmt.Sprintf("adversary: robot %d escaped to node %d at t=%d (phase %d)", idx, p, t, a.phase))
	}
}

// AppendLassoKey implements fsync.LassoKeyer: the phase, which with the
// watched robot's position decides the next presence set.
func (a *TwoRobotConfinement) AppendLassoKey(dst []int) []int { return append(dst, a.phase) }

// Phase returns the current phase index (0..3).
func (a *TwoRobotConfinement) Phase() int { return a.phase }
