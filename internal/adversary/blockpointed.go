package adversary

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// BlockPointed is the budgeted stress adversary used by the possibility
// experiments: each round it removes every edge some robot currently points
// to — the most obstructive choice — except that no edge may be absent for
// more than Budget consecutive rounds. The release rule makes every edge
// recurrent with recurrence bound Budget+1, so the realized graph is
// connected-over-time and PEF_3+ must (and does) keep exploring, with a
// revisit gap that grows with the budget (experiment E-X2 quantifies this).
type BlockPointed struct {
	r      ring.Ring
	budget int
	run    []int // consecutive rounds each edge has been absent
}

// NewBlockPointed builds the adversary for an n-node ring with the given
// consecutive-absence budget (>= 1).
func NewBlockPointed(n, budget int) *BlockPointed {
	if budget < 1 {
		panic(fmt.Sprintf("adversary: block budget %d below 1", budget))
	}
	return &BlockPointed{r: ring.New(n), budget: budget, run: make([]int, ring.New(n).Edges())}
}

// Ring implements fsync.Dynamics.
func (a *BlockPointed) Ring() ring.Ring { return a.r }

// EdgesAt implements fsync.Dynamics.
func (a *BlockPointed) EdgesAt(t int, snap fsync.Snapshot) ring.EdgeSet {
	edges := ring.NewEdgeSet(a.r.Edges())
	a.EdgesAtInto(t, snap, &edges)
	return edges
}

// EdgesAtInto implements fsync.InPlaceDynamics.
func (a *BlockPointed) EdgesAtInto(_ int, snap fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	for i, pos := range snap.Positions {
		e := a.r.EdgeTowards(pos, snap.GlobalDirs[i])
		if a.run[e] < a.budget {
			dst.Remove(e)
		}
	}
	updateRuns(a.run, *dst)
}

// updateRuns advances the per-edge consecutive-absence counters of the
// budgeted adversaries by one round with presence set edges.
func updateRuns(run []int, edges ring.EdgeSet) {
	for e := range run {
		if edges.Contains(e) {
			run[e] = 0
		} else {
			run[e]++
		}
	}
}

// BlockBothSides removes, each round, both adjacent edges of every robot's
// node subject to the same per-edge consecutive-absence budget. It is the
// FSYNC control of experiment E-X4: the SSYNC trick of freezing the active
// robot cannot work when every robot is active every round and edges must
// keep reappearing — robots provably get to move.
type BlockBothSides struct {
	r      ring.Ring
	budget int
	run    []int
}

// NewBlockBothSides builds the adversary with the given budget (>= 1).
func NewBlockBothSides(n, budget int) *BlockBothSides {
	if budget < 1 {
		panic(fmt.Sprintf("adversary: block budget %d below 1", budget))
	}
	return &BlockBothSides{r: ring.New(n), budget: budget, run: make([]int, ring.New(n).Edges())}
}

// Ring implements fsync.Dynamics.
func (a *BlockBothSides) Ring() ring.Ring { return a.r }

// EdgesAt implements fsync.Dynamics.
func (a *BlockBothSides) EdgesAt(t int, snap fsync.Snapshot) ring.EdgeSet {
	edges := ring.NewEdgeSet(a.r.Edges())
	a.EdgesAtInto(t, snap, &edges)
	return edges
}

// EdgesAtInto implements fsync.InPlaceDynamics.
func (a *BlockBothSides) EdgesAtInto(_ int, snap fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	for _, pos := range snap.Positions {
		for _, d := range [2]ring.Direction{ring.CW, ring.CCW} {
			e := a.r.EdgeTowards(pos, d)
			if a.run[e] < a.budget {
				dst.Remove(e)
			}
		}
	}
	updateRuns(a.run, *dst)
}
