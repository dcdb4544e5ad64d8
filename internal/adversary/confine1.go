// Package adversary implements the paper's proof constructions as runnable
// adaptive dynamics:
//
//   - OneRobotConfinement: the evolving-graph sequence of Theorem 5.1
//     (Figure 3), which confines any single deterministic robot to two
//     adjacent nodes of a connected-over-time ring of size >= 3.
//   - TwoRobotConfinement: the four-phase sequence of Theorem 4.1
//     (Figure 2), which confines any two deterministic robots to three
//     consecutive nodes of a connected-over-time ring of size >= 4.
//   - Mirror: the eight-node indistinguishability gadget of Lemma 4.1
//     (Figure 1), with checkers for its Claims 1–4.
//   - BlockPointed: a budgeted stress adversary for the possibility
//     experiments.
//
// The proofs wait for the victim to move ("there exists t' >= t such that
// the robot leaves"); the adaptive implementations do the same, observing
// only robot positions. If the victim never moves, the frozen schedule is
// itself a legal connected-over-time counterexample (an eventually missing
// edge keeps the eventual underlying graph connected), which the verdicts
// detect as confinement all the same.
package adversary

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// StallInfo describes a phase that the victim never completed: the watched
// robot sat on Node from Since onwards while OneEdge(Node, Since, now)
// held, with the missing adjacent edge on side MissingSide.
type StallInfo struct {
	// Robot is the index of the stalled robot.
	Robot int
	// Node is where it is stuck.
	Node int
	// Since is the first instant of the stalled phase.
	Since int
	// MissingSide is the global direction from Node towards the blocked
	// adjacent edge.
	MissingSide ring.Direction
}

// OneRobotConfinement is the Theorem 5.1 adversary. Starting from the
// victim's initial node u, it alternates two phases:
//
//	Phase A (robot at u): remove e_ur, the clockwise adjacent edge of u.
//	        The only exit is counter-clockwise, to v.
//	Phase B (robot at v): remove e_vl, the counter-clockwise adjacent edge
//	        of v. The only exit is back to u.
//
// Every other edge stays present, so each snapshot is a connected chain.
// Whatever the algorithm does, the robot only ever occupies {u, v}; if it
// keeps moving, every removal interval is finite and the realized graph is
// connected-over-time with all edges recurrent (the paper's Gω); if it
// eventually stops, the realized graph has a single eventually missing edge
// and is still connected-over-time.
type OneRobotConfinement struct {
	r     ring.Ring
	u, v  int
	robot int

	phaseStart int
	lastNode   int
}

// NewOneRobotConfinement builds the adversary for the robot with the given
// index, whose initial node is u, on an n-node ring (n >= 3).
func NewOneRobotConfinement(n, u, robotIdx int) *OneRobotConfinement {
	r := ring.New(n)
	if n < 3 {
		panic(fmt.Sprintf("adversary: Theorem 5.1 needs n >= 3, got %d", n))
	}
	if !r.ValidNode(u) {
		panic(fmt.Sprintf("adversary: invalid start node %d", u))
	}
	return &OneRobotConfinement{r: r, u: u, v: r.Next(u, ring.CCW), robot: robotIdx, lastNode: u}
}

// Ring implements fsync.Dynamics.
func (a *OneRobotConfinement) Ring() ring.Ring { return a.r }

// EdgesAt implements fsync.Dynamics.
func (a *OneRobotConfinement) EdgesAt(t int, snap fsync.Snapshot) ring.EdgeSet {
	edges := ring.NewEdgeSet(a.r.Edges())
	a.EdgesAtInto(t, snap, &edges)
	return edges
}

// EdgesAtInto implements fsync.InPlaceDynamics.
func (a *OneRobotConfinement) EdgesAtInto(t int, snap fsync.Snapshot, dst *ring.EdgeSet) {
	pos := snap.Positions[a.robot]
	if pos != a.lastNode {
		a.phaseStart = t
		a.lastNode = pos
	}
	dst.Fill()
	switch pos {
	case a.u:
		// Block e_ur: the clockwise adjacent edge of u.
		dst.Remove(a.r.EdgeTowards(a.u, ring.CW))
	case a.v:
		// Block e_vl: the counter-clockwise adjacent edge of v.
		dst.Remove(a.r.EdgeTowards(a.v, ring.CCW))
	default:
		// Unreachable by construction: the victim can only ever occupy
		// u or v. Fail loudly rather than let a bug masquerade as a
		// successful escape.
		panic(fmt.Sprintf("adversary: victim escaped to node %d at t=%d", pos, t))
	}
}

// Nodes returns the two nodes the victim is confined to.
func (a *OneRobotConfinement) Nodes() (u, v int) { return a.u, a.v }

// Stall returns information about the current phase if the victim has been
// sitting still for at least patience rounds, observed at time now.
func (a *OneRobotConfinement) Stall(now, patience int) (StallInfo, bool) {
	if now-a.phaseStart < patience {
		return StallInfo{}, false
	}
	side := ring.CW
	if a.lastNode == a.v {
		side = ring.CCW
	}
	return StallInfo{Robot: a.robot, Node: a.lastNode, Since: a.phaseStart, MissingSide: side}, true
}
