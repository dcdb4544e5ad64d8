// Package spec turns the paper's specifications into finite-horizon
// checkers:
//
//   - the perpetual exploration specification of Section 2.4 (every node
//     infinitely often visited), verified on prefixes via cover times,
//     per-node revisit gaps and windowed cover checks;
//   - confinement (the quantity bounded by the impossibility proofs:
//     the set of nodes ever visited);
//   - the structural tower invariants of Lemmas 3.3 and 3.4;
//   - the sentinel formation property of Lemma 3.7.
//
// All checkers are fsync.Observers: attach them to a simulator and read the
// report afterwards.
package spec

import (
	"fmt"

	"pef/internal/fsync"
)

// VisitTracker records node visits. A node is visited at instant t when a
// robot is located at it in configuration γ_t; the initial configuration
// counts (the specification speaks of locations over the whole execution).
type VisitTracker struct {
	n         int
	horizon   int
	visits    []int // total visits per node
	lastVisit []int // last instant each node was visited, -1 if never
	maxGap    []int // largest revisit gap per node observed so far
	coverTime int   // first instant at which every node had been visited
	covered   int   // number of nodes visited at least once
	primed    bool  // initial configuration recorded
}

// NewVisitTracker creates a tracker for an n-node ring.
func NewVisitTracker(n int) *VisitTracker {
	vt := &VisitTracker{}
	vt.Reset(n)
	return vt
}

// Reset re-arms the tracker for a fresh run over an n-node ring, reusing
// its backing slices where capacities allow — the pooling hook for
// million-scenario campaigns.
func (vt *VisitTracker) Reset(n int) {
	vt.n = n
	vt.horizon = 0
	vt.coverTime = -1
	vt.covered = 0
	vt.primed = false
	vt.visits = resizeInts(vt.visits, n)
	vt.lastVisit = resizeInts(vt.lastVisit, n)
	vt.maxGap = resizeInts(vt.maxGap, n)
	for i := 0; i < n; i++ {
		vt.visits[i] = 0
		vt.lastVisit[i] = -1
		vt.maxGap[i] = 0
	}
}

// resizeInts returns a slice of length n reusing s's backing array when
// possible.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ObserveRound implements fsync.Observer.
func (vt *VisitTracker) ObserveRound(ev fsync.RoundEvent) {
	if !vt.primed {
		vt.recordConfig(ev.Before)
		vt.primed = true
	}
	vt.recordConfig(ev.After)
}

func (vt *VisitTracker) recordConfig(snap fsync.Snapshot) {
	vt.horizon = snap.T + 1
	for pi, node := range snap.Positions {
		// Count each node once per instant even when a tower stands on it
		// (k is tiny, so the quadratic rescan beats a per-round set).
		dup := false
		for _, prev := range snap.Positions[:pi] {
			if prev == node {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if vt.lastVisit[node] < 0 {
			vt.covered++
			if vt.covered == vt.n && vt.coverTime < 0 {
				vt.coverTime = snap.T
			}
			// The gap from the start of the execution counts: a node first
			// visited at t waited t instants.
			if snap.T > vt.maxGap[node] {
				vt.maxGap[node] = snap.T
			}
		} else if gap := snap.T - vt.lastVisit[node]; gap > vt.maxGap[node] {
			vt.maxGap[node] = gap
		}
		vt.lastVisit[node] = snap.T
		vt.visits[node]++
	}
}

// Report summarizes the tracker at the current horizon.
func (vt *VisitTracker) Report() ExplorationReport {
	rep := ExplorationReport{
		Nodes:     vt.n,
		Horizon:   vt.horizon,
		CoverTime: vt.coverTime,
		Covered:   vt.covered,
		Visits:    append([]int(nil), vt.visits...),
	}
	for node := 0; node < vt.n; node++ {
		gap := vt.maxGap[node]
		// A node not seen since lastVisit has an open gap reaching the
		// horizon; count it — perpetual exploration must keep revisiting.
		if vt.lastVisit[node] < 0 {
			gap = vt.horizon
		} else if open := vt.horizon - 1 - vt.lastVisit[node]; open > gap {
			gap = open
		}
		if gap > rep.MaxGap {
			rep.MaxGap = gap
			rep.WorstNode = node
		}
	}
	return rep
}

// ExplorationReport is the finite-horizon verdict on the perpetual
// exploration specification.
type ExplorationReport struct {
	// Nodes is the ring size.
	Nodes int
	// Horizon is the number of observed instants.
	Horizon int
	// Covered is how many distinct nodes were visited at least once.
	Covered int
	// CoverTime is the first instant at which all nodes had been visited
	// (-1 if never).
	CoverTime int
	// MaxGap is the largest revisit gap over all nodes, counting the open
	// gap at the end of the horizon and the initial wait before first
	// visit.
	MaxGap int
	// WorstNode attains MaxGap.
	WorstNode int
	// Visits is the per-node visit count.
	Visits []int
}

// PerpetuallyExplored applies the finite-horizon acceptance criterion: all
// nodes covered and every revisit gap at most gapBound. Passing for a
// gapBound that stays constant as the horizon grows is the empirical
// signature of perpetual exploration.
func (r ExplorationReport) PerpetuallyExplored(gapBound int) bool {
	return r.Covered == r.Nodes && r.CoverTime >= 0 && r.MaxGap <= gapBound
}

// MinVisits returns the smallest per-node visit count.
func (r ExplorationReport) MinVisits() int {
	min := r.Horizon
	for _, v := range r.Visits {
		if v < min {
			min = v
		}
	}
	return min
}

// ExploreViolation is the message-producing form of the full acceptance
// criterion shared by the possibility experiments and the scenario oracle:
// full coverage, every node visited at least minVisits times (the ring
// keeps being re-explored), and every revisit gap at most gapBound. It
// describes the first failure, or returns "" when the criterion holds.
func (r ExplorationReport) ExploreViolation(minVisits, gapBound int) string {
	if r.Covered != r.Nodes || r.CoverTime < 0 {
		return fmt.Sprintf("covered %d/%d nodes", r.Covered, r.Nodes)
	}
	if mv := r.MinVisits(); mv < minVisits {
		return fmt.Sprintf("a node was visited only %d time(s); the ring is not being re-explored", mv)
	}
	if r.MaxGap > gapBound {
		return fmt.Sprintf("max revisit gap %d exceeds bound %d (node %d)", r.MaxGap, gapBound, r.WorstNode)
	}
	return ""
}

// String implements fmt.Stringer.
func (r ExplorationReport) String() string {
	return fmt.Sprintf("explored %d/%d nodes, cover=%d, maxGap=%d (node %d), horizon=%d",
		r.Covered, r.Nodes, r.CoverTime, r.MaxGap, r.WorstNode, r.Horizon)
}

// ConfinementTracker records the set of nodes ever visited and its growth
// over time — the quantity the impossibility theorems bound (two robots
// never leave {u, v, w}; one robot never leaves {u, v}).
type ConfinementTracker struct {
	visited []bool // node-indexed, grown on demand
	count   int    // number of true entries in visited
	series  []int  // distinct-visited count after each instant
	primed  bool
}

// NewConfinementTracker creates an empty tracker.
func NewConfinementTracker() *ConfinementTracker {
	return &ConfinementTracker{}
}

// Reset re-arms the tracker for a fresh run, reusing the visited and
// series storage.
func (ct *ConfinementTracker) Reset() {
	clear(ct.visited)
	ct.count = 0
	ct.series = ct.series[:0]
	ct.primed = false
}

// ObserveRound implements fsync.Observer.
func (ct *ConfinementTracker) ObserveRound(ev fsync.RoundEvent) {
	if !ct.primed {
		ct.record(ev.Before)
		ct.primed = true
	}
	ct.record(ev.After)
}

func (ct *ConfinementTracker) record(snap fsync.Snapshot) {
	for _, node := range snap.Positions {
		if node >= len(ct.visited) {
			ct.visited = append(ct.visited, make([]bool, node+1-len(ct.visited))...)
		}
		if !ct.visited[node] {
			ct.visited[node] = true
			ct.count++
		}
	}
	ct.series = append(ct.series, ct.count)
}

// Distinct returns the number of distinct nodes ever visited.
func (ct *ConfinementTracker) Distinct() int { return ct.count }

// VisitedNodes returns the visited nodes in increasing order.
func (ct *ConfinementTracker) VisitedNodes() []int {
	out := make([]int, 0, ct.count)
	for n, seen := range ct.visited {
		if seen {
			out = append(out, n)
		}
	}
	return out
}

// Series returns the distinct-visited counts after each observed instant.
func (ct *ConfinementTracker) Series() []int {
	return append([]int(nil), ct.series...)
}

// ConfinedTo reports whether the walkers never visited more than limit
// distinct nodes.
func (ct *ConfinementTracker) ConfinedTo(limit int) bool {
	return ct.count <= limit
}
