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
	r    ring.Ring
	runs absenceRuns
}

// NewBlockPointed builds the adversary for an n-node ring with the given
// consecutive-absence budget (>= 1).
func NewBlockPointed(n, budget int) *BlockPointed {
	if budget < 1 {
		panic(fmt.Sprintf("adversary: block budget %d below 1", budget))
	}
	r := ring.New(n)
	return &BlockPointed{r: r, runs: newAbsenceRuns(r.Edges(), budget)}
}

// Ring implements fsync.Dynamics.
func (a *BlockPointed) Ring() ring.Ring { return a.r }

// EdgesAtInto implements fsync.Dynamics.
func (a *BlockPointed) EdgesAtInto(_ int, snap *fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	for i, pos := range snap.Positions {
		a.runs.remove(a.r.EdgeTowards(pos, snap.GlobalDirs[i]), dst)
	}
	a.runs.advance(*dst)
}

// AppendLassoKey implements fsync.LassoKeyer: the per-edge absence
// counters, which with the pointed edges decide the next presence set
// (the edges removed last round are exactly those with a nonzero count).
func (a *BlockPointed) AppendLassoKey(dst []int) []int {
	return append(dst, a.runs.run...)
}

// absenceRuns holds the per-edge consecutive-absence counters of the
// budgeted adversaries. Only the edges removed in the previous round have
// nonzero counters, and prev lists exactly those, so a round costs O(k)
// rather than O(n).
type absenceRuns struct {
	budget    int   // most consecutive rounds an edge may be absent
	run       []int // consecutive rounds each edge has been absent
	prev, cur []int // edges removed in the previous and the current round
}

// newAbsenceRuns sizes the counters for a ring of the given edge count.
// A round removes each edge at most once, so the lists never grow past
// their initial capacity and a round allocates nothing.
func newAbsenceRuns(edges, budget int) absenceRuns {
	return absenceRuns{
		budget: budget,
		run:    make([]int, edges),
		prev:   make([]int, 0, edges),
		cur:    make([]int, 0, edges),
	}
}

// remove takes e out of dst unless e has used up its budget. An edge
// already removed this round is left alone, so it is counted once.
func (a *absenceRuns) remove(e int, dst *ring.EdgeSet) {
	if a.run[e] < a.budget && dst.Contains(e) {
		dst.Remove(e)
		a.cur = append(a.cur, e)
	}
}

// advance closes the round whose presence set is edges: an edge removed in
// the previous round and present now restarts at zero, and every edge
// removed this round counts one more absent round.
func (a *absenceRuns) advance(edges ring.EdgeSet) {
	for _, e := range a.prev {
		if edges.Contains(e) {
			a.run[e] = 0
		}
	}
	for _, e := range a.cur {
		a.run[e]++
	}
	a.prev, a.cur = a.cur, a.prev[:0]
}

// BlockBothSides removes, each round, both adjacent edges of every robot's
// node subject to the same per-edge consecutive-absence budget. It is the
// FSYNC control of experiment E-X4: the SSYNC trick of freezing the active
// robot cannot work when every robot is active every round and edges must
// keep reappearing — robots provably get to move.
type BlockBothSides struct {
	r    ring.Ring
	runs absenceRuns
}

// NewBlockBothSides builds the adversary with the given budget (>= 1).
func NewBlockBothSides(n, budget int) *BlockBothSides {
	if budget < 1 {
		panic(fmt.Sprintf("adversary: block budget %d below 1", budget))
	}
	r := ring.New(n)
	return &BlockBothSides{r: r, runs: newAbsenceRuns(r.Edges(), budget)}
}

// Ring implements fsync.Dynamics.
func (a *BlockBothSides) Ring() ring.Ring { return a.r }

// EdgesAtInto implements fsync.Dynamics.
func (a *BlockBothSides) EdgesAtInto(_ int, snap *fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	for _, pos := range snap.Positions {
		for _, d := range [2]ring.Direction{ring.CW, ring.CCW} {
			a.runs.remove(a.r.EdgeTowards(pos, d), dst)
		}
	}
	a.runs.advance(*dst)
}
