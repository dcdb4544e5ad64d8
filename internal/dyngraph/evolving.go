// Package dyngraph implements the evolving-graph model of Xuan, Ferreira and
// Jarry used by the paper (Section 2.1): an evolving graph G is a sequence
// {G_0, G_1, ...} of subgraphs of a static ring, where G_t = (V, E_t) and the
// edges of E_t are said to be present at time t.
//
// The package provides:
//
//   - the EvolvingGraph abstraction (random access to edge presence),
//   - the removal operator G \ {(e, τ1), ...} used throughout the
//     impossibility proofs,
//   - recorded finite traces,
//   - temporal analysis: underlying graph, eventually-missing and recurrent
//     edges on a horizon, the OneEdge(u, t, t') predicate of Section 2.1,
//   - temporal journeys (foremost / shortest / fastest) and finite-horizon
//     connected-over-time verification.
package dyngraph

import (
	"fmt"

	"pef/internal/ring"
)

// EvolvingGraph is a dynamic ring: a time-indexed family of presence sets
// over the edges of a fixed underlying ring. Present must be a pure function
// of (e, t); implementations requiring knowledge of robot positions (adaptive
// adversaries) live in the simulator layer instead, which records their
// decisions into a *Recorded for later analysis.
type EvolvingGraph interface {
	// Ring returns the underlying static ring (V, E) of which every G_t is
	// a subgraph.
	Ring() ring.Ring
	// Present reports whether edge e is present at time t. Present must
	// return false for out-of-range edges and may be called with arbitrary
	// t >= 0 in any order.
	Present(e, t int) bool
}

// EdgesAt materializes the presence set E_t of g.
func EdgesAt(g EvolvingGraph, t int) ring.EdgeSet {
	s := ring.NewEdgeSet(g.Ring().Edges())
	EdgesInto(g, t, &s)
	return s
}

// InPlaceGraph is an optional extension of EvolvingGraph: the graph's E_t
// kernel. Implementations write the presence set Present describes into a
// caller-provided EdgeSet, a word at a time, so per-round materialization
// needs neither allocation nor a per-edge call (recorded traces copy
// words instead of re-testing every edge). Both engines read E_t through
// it when a graph has one.
type InPlaceGraph interface {
	EvolvingGraph
	// EdgesAtInto overwrites dst with E_t. dst is resized if its capacity
	// does not match the ring's edge count.
	EdgesAtInto(t int, dst *ring.EdgeSet)
}

// EdgesInto materializes E_t of g into dst without allocating (when dst
// already has the right capacity), using the graph's own kernel when it
// provides one.
func EdgesInto(g EvolvingGraph, t int, dst *ring.EdgeSet) {
	if ip, ok := g.(InPlaceGraph); ok {
		ip.EdgesAtInto(t, dst)
		return
	}
	presentInto(g, t, dst)
}

// presentInto materializes E_t of g by testing every edge with Present:
// the fallback for graphs without a kernel.
func presentInto(g EvolvingGraph, t int, dst *ring.EdgeSet) {
	r := g.Ring()
	if dst.Size() != r.Edges() {
		*dst = ring.NewEdgeSet(r.Edges())
	}
	dst.Clear()
	for e := 0; e < r.Edges(); e++ {
		if g.Present(e, t) {
			dst.Add(e)
		}
	}
}

// Static is the evolving graph in which every edge of the ring is present at
// every instant (the graph used as the starting point of both impossibility
// constructions, Theorems 4.1 and 5.1).
type Static struct {
	r ring.Ring
}

// NewStatic returns the always-complete evolving ring over n nodes.
func NewStatic(n int) Static { return Static{r: ring.New(n)} }

// Ring implements EvolvingGraph.
func (s Static) Ring() ring.Ring { return s.r }

// Present implements EvolvingGraph: every valid edge is always present.
func (s Static) Present(e, t int) bool {
	return s.r.ValidEdge(e) && t >= 0
}

// EdgesAtInto implements InPlaceGraph: every valid edge is present.
func (s Static) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if n := s.r.Edges(); dst.Size() != n {
		*dst = ring.NewEdgeSet(n)
	}
	if t < 0 {
		dst.Clear()
		return
	}
	dst.Fill()
}

// Interval is a half-open time interval [Start, End). The paper writes
// inclusive intervals {t, ..., t'}; the constructor Incl converts.
type Interval struct {
	Start int // first instant in the interval
	End   int // first instant past the interval
}

// Incl builds the half-open interval equal to the paper's inclusive
// {first, ..., last}.
func Incl(first, last int) Interval { return Interval{Start: first, End: last + 1} }

// Contains reports whether instant t lies in the interval.
func (iv Interval) Contains(t int) bool { return t >= iv.Start && t < iv.End }

// Empty reports whether the interval contains no instant.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Len returns the number of instants in the interval.
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.End - iv.Start
}

// Overlaps reports whether the two intervals share an instant.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Start < o.End && o.Start < iv.End
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Start, iv.End) }

// Removal is one (e, τ) pair of the paper's removal operator: edge Edge is
// forced absent during each interval of During.
type Removal struct {
	Edge   int
	During []Interval
}

// removed reports whether the removal suppresses its edge at time t.
func (rm Removal) removed(t int) bool {
	for _, iv := range rm.During {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// Without implements the evolving graph G \ {(e1, τ1), ..., (ek, τk)} of
// Section 2.1: edge e is present at t in the result iff it is present in g
// and no removal (e, τ) with t ∈ τ exists.
type Without struct {
	base     EvolvingGraph
	removals []Removal
}

// NewWithout applies the removal operator to g. The removals slice is copied
// so later mutation by the caller cannot corrupt the graph.
func NewWithout(g EvolvingGraph, removals ...Removal) *Without {
	rs := make([]Removal, len(removals))
	for i, rm := range removals {
		rs[i] = Removal{Edge: rm.Edge, During: append([]Interval(nil), rm.During...)}
	}
	return &Without{base: g, removals: rs}
}

// Ring implements EvolvingGraph.
func (w *Without) Ring() ring.Ring { return w.base.Ring() }

// Present implements EvolvingGraph.
func (w *Without) Present(e, t int) bool {
	if !w.base.Present(e, t) {
		return false
	}
	for _, rm := range w.removals {
		if rm.Edge == e && rm.removed(t) {
			return false
		}
	}
	return true
}

// Removals returns a copy of the removal list.
func (w *Without) Removals() []Removal {
	rs := make([]Removal, len(w.removals))
	for i, rm := range w.removals {
		rs[i] = Removal{Edge: rm.Edge, During: append([]Interval(nil), rm.During...)}
	}
	return rs
}

// EventualMissing is an evolving graph with exactly one eventual missing
// edge: edge Edge behaves as in the base graph before time From and is
// absent forever afterwards. This is the canonical hard instance for
// PEF_3+ (Section 3): the extremities of the missing edge become the
// sentinel posts of Lemma 3.7.
type EventualMissing struct {
	base EvolvingGraph
	edge int
	from int
}

// NewEventualMissing wraps base so that edge is permanently absent from time
// from onwards.
func NewEventualMissing(base EvolvingGraph, edge, from int) *EventualMissing {
	if !base.Ring().ValidEdge(edge) {
		panic(fmt.Sprintf("dyngraph: invalid eventual missing edge %d", edge))
	}
	return &EventualMissing{base: base, edge: edge, from: from}
}

// Ring implements EvolvingGraph.
func (g *EventualMissing) Ring() ring.Ring { return g.base.Ring() }

// Present implements EvolvingGraph.
func (g *EventualMissing) Present(e, t int) bool {
	if e == g.edge && t >= g.from {
		return false
	}
	return g.base.Present(e, t)
}

// EdgesAtInto implements InPlaceGraph: the base set, minus the missing
// edge once t reaches From.
func (g *EventualMissing) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t < 0 {
		if n := g.base.Ring().Edges(); dst.Size() != n {
			*dst = ring.NewEdgeSet(n)
		}
		dst.Clear()
		return
	}
	EdgesInto(g.base, t, dst)
	if t >= g.from {
		dst.Remove(g.edge)
	}
}

// Edge returns the index of the eventual missing edge.
func (g *EventualMissing) Edge() int { return g.edge }

// From returns the first instant at which the edge is gone forever.
func (g *EventualMissing) From() int { return g.from }

// Func adapts a presence function to the EvolvingGraph interface.
type Func struct {
	R ring.Ring
	F func(e, t int) bool
}

// Ring implements EvolvingGraph.
func (f Func) Ring() ring.Ring { return f.R }

// Present implements EvolvingGraph.
func (f Func) Present(e, t int) bool {
	if !f.R.ValidEdge(e) || t < 0 {
		return false
	}
	return f.F(e, t)
}

// verify interface compliance at compile time.
var (
	_ InPlaceGraph = Static{}
	_ InPlaceGraph = (*EventualMissing)(nil)
)
