package adversary

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// ArcContainment is the naive generalization of the confinement adversaries
// to arbitrary team sizes: it tries to imprison all robots inside the arc
// of nodes [Start, Start+Width) by removing the arc's two boundary edges.
// BoundaryBudget controls legality:
//
//   - BoundaryBudget == 0: boundaries stay removed forever. Containment is
//     then trivial, but the realized graph has two eventually missing
//     edges, so its eventual underlying graph is disconnected — NOT a
//     connected-over-time ring. The run is disqualified as an
//     impossibility witness.
//   - BoundaryBudget == B > 0: a boundary edge must reappear for one round
//     after B consecutive absences. The realized graph is legal, but
//     Theorem 3.1 robots (k >= 3 running PEF_3+) cross reopened boundaries
//     and explore the whole ring.
//
// Experiment E-X11 runs both policies against PEF_3+ to make the paper's
// threshold visible: below three robots the phase adversaries confine
// legally; from three robots on, every containment attempt must choose
// between illegality and escape.
type ArcContainment struct {
	r              ring.Ring
	start, width   int
	boundaryBudget int
	run            [2]int // consecutive absences per boundary edge
}

// NewArcContainment confines to the arc of width nodes starting at start.
// Width must leave at least one node outside the arc.
func NewArcContainment(n, start, width, boundaryBudget int) *ArcContainment {
	r := ring.New(n)
	if width < 1 || width >= n {
		panic(fmt.Sprintf("adversary: arc width %d invalid for ring of %d", width, n))
	}
	if boundaryBudget < 0 {
		panic("adversary: negative boundary budget")
	}
	return &ArcContainment{r: r, start: r.Node(start), width: width, boundaryBudget: boundaryBudget}
}

// Ring implements fsync.Dynamics.
func (a *ArcContainment) Ring() ring.Ring { return a.r }

// Boundaries returns the two boundary edges of the arc: the CCW edge of
// its first node and the CW edge of its last node.
func (a *ArcContainment) Boundaries() (left, right int) {
	left = a.r.EdgeTowards(a.start, ring.CCW)
	right = a.r.EdgeTowards(a.r.Node(a.start+a.width-1), ring.CW)
	return left, right
}

// EdgesAtInto implements fsync.Dynamics.
func (a *ArcContainment) EdgesAtInto(_ int, _ *fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	left, right := a.Boundaries()
	for i, e := range [2]int{left, right} {
		if a.boundaryBudget == 0 || a.run[i] < a.boundaryBudget {
			dst.Remove(e)
			a.run[i]++
		} else {
			a.run[i] = 0 // forced reopening round
		}
	}
}
