package dyngraph

import (
	"fmt"

	"pef/internal/ring"
)

// Hop is one edge traversal of a journey: the edge is crossed at instant
// Depart (it must be present then) and the walker arrives at the far
// endpoint at instant Depart+1.
type Hop struct {
	Edge   int
	Depart int
}

// Journey is a temporal path (Section 2.1, citing Casteigts et al.): an
// alternating sequence of waits and hops from Src starting at time Start.
// The zero Journey (no hops) is the trivial journey staying on Src.
type Journey struct {
	Src   int
	Start int
	Hops  []Hop
}

// Dest returns the final node of the journey on the given ring.
func (j Journey) Dest(r ring.Ring) int {
	cur := j.Src
	for _, h := range j.Hops {
		a, b := r.EdgeEndpoints(h.Edge)
		switch cur {
		case a:
			cur = b
		case b:
			cur = a
		default:
			// Validate reports this precisely; Dest just walks.
			return cur
		}
	}
	return cur
}

// Arrival returns the instant at which the journey completes: Start for the
// trivial journey, last hop departure + 1 otherwise.
func (j Journey) Arrival() int {
	if len(j.Hops) == 0 {
		return j.Start
	}
	return j.Hops[len(j.Hops)-1].Depart + 1
}

// Duration returns Arrival - Start.
func (j Journey) Duration() int { return j.Arrival() - j.Start }

// Length returns the number of hops (the topological length).
func (j Journey) Length() int { return len(j.Hops) }

// Validate checks that the journey is realizable in g: departures are
// non-decreasing and no earlier than Start, every hop's edge is adjacent to
// the walker's current node, and every edge is present at its departure
// instant.
func (j Journey) Validate(g EvolvingGraph) error {
	r := g.Ring()
	if !r.ValidNode(j.Src) {
		return fmt.Errorf("dyngraph: journey source %d outside ring of %d nodes", j.Src, r.Size())
	}
	cur := j.Src
	now := j.Start
	for i, h := range j.Hops {
		if h.Depart < now {
			return fmt.Errorf("dyngraph: hop %d departs at %d before ready time %d", i, h.Depart, now)
		}
		a, b := r.EdgeEndpoints(h.Edge)
		var next int
		switch cur {
		case a:
			next = b
		case b:
			next = a
		default:
			return fmt.Errorf("dyngraph: hop %d uses edge %d not adjacent to node %d", i, h.Edge, cur)
		}
		if !g.Present(h.Edge, h.Depart) {
			return fmt.Errorf("dyngraph: hop %d crosses edge %d at %d while absent", i, h.Edge, h.Depart)
		}
		cur = next
		now = h.Depart + 1
	}
	return nil
}

// ForemostArrivals computes, for every node, the earliest instant at which a
// walker leaving src at time start can be located there, exploring presence
// up to the given horizon. Unreachable nodes (within the horizon) get -1.
// This is the foremost-journey computation of Xuan, Ferreira and Jarry,
// specialized to rings: O(horizon · n).
func ForemostArrivals(g EvolvingGraph, src, start, horizon int) []int {
	r := g.Ring()
	arrival := make([]int, r.Size())
	for i := range arrival {
		arrival[i] = -1
	}
	if !r.ValidNode(src) || start < 0 {
		return arrival
	}
	arrival[src] = start
	reached := 1
	for t := start; t < horizon && reached < r.Size(); t++ {
		for e := 0; e < r.Edges(); e++ {
			if !g.Present(e, t) {
				continue
			}
			a, b := r.EdgeEndpoints(e)
			if arrival[a] >= 0 && arrival[a] <= t && arrival[b] < 0 {
				arrival[b] = t + 1
				reached++
			}
			if arrival[b] >= 0 && arrival[b] <= t && arrival[a] < 0 {
				arrival[a] = t + 1
				reached++
			}
		}
	}
	return arrival
}

// ForemostJourney returns a journey from src (departing no earlier than
// start) arriving at dst at the earliest possible instant within the
// horizon, or ok=false if dst is unreachable on the horizon.
func ForemostJourney(g EvolvingGraph, src, dst, start, horizon int) (Journey, bool) {
	r := g.Ring()
	j := Journey{Src: src, Start: start}
	if !r.ValidNode(src) || !r.ValidNode(dst) {
		return j, false
	}
	if src == dst {
		return j, true
	}
	type pred struct {
		node int
		hop  Hop
	}
	arrival := make([]int, r.Size())
	preds := make([]pred, r.Size())
	for i := range arrival {
		arrival[i] = -1
	}
	arrival[src] = start
	for t := start; t < horizon; t++ {
		if arrival[dst] >= 0 {
			break
		}
		for e := 0; e < r.Edges(); e++ {
			if !g.Present(e, t) {
				continue
			}
			a, b := r.EdgeEndpoints(e)
			if arrival[a] >= 0 && arrival[a] <= t && arrival[b] < 0 {
				arrival[b] = t + 1
				preds[b] = pred{node: a, hop: Hop{Edge: e, Depart: t}}
			}
			if arrival[b] >= 0 && arrival[b] <= t && arrival[a] < 0 {
				arrival[a] = t + 1
				preds[a] = pred{node: b, hop: Hop{Edge: e, Depart: t}}
			}
		}
	}
	if arrival[dst] < 0 {
		return j, false
	}
	// Walk predecessors back from dst.
	var rev []Hop
	for cur := dst; cur != src; cur = preds[cur].node {
		rev = append(rev, preds[cur].hop)
	}
	j.Hops = make([]Hop, len(rev))
	for i := range rev {
		j.Hops[i] = rev[len(rev)-1-i]
	}
	return j, true
}

// ShortestJourney returns a journey from src to dst departing no earlier
// than start that minimizes the number of hops (topological length), within
// the horizon. Among journeys of minimal length it arrives foremost.
func ShortestJourney(g EvolvingGraph, src, dst, start, horizon int) (Journey, bool) {
	r := g.Ring()
	j := Journey{Src: src, Start: start}
	if !r.ValidNode(src) || !r.ValidNode(dst) {
		return j, false
	}
	if src == dst {
		return j, true
	}
	// best[v] = earliest arrival at v using exactly h hops (current layer).
	const inf = int(^uint(0) >> 1)
	type trail struct {
		hops []Hop
		at   int
	}
	layer := map[int]trail{src: {at: start}}
	// A ring journey never needs more than n hops if it is hop-minimal
	// (revisiting a node cannot reduce length on a cycle of n nodes).
	for h := 1; h <= r.Size(); h++ {
		next := map[int]trail{}
		for v, tr := range layer {
			for _, d := range []ring.Direction{ring.CW, ring.CCW} {
				e := r.EdgeTowards(v, d)
				u := r.Next(v, d)
				// Earliest instant >= tr.at at which e is present.
				depart := -1
				for t := tr.at; t < horizon; t++ {
					if g.Present(e, t) {
						depart = t
						break
					}
				}
				if depart < 0 {
					continue
				}
				arr := depart + 1
				if prev, ok := next[u]; !ok || arr < prev.at {
					hops := make([]Hop, len(tr.hops)+1)
					copy(hops, tr.hops)
					hops[len(tr.hops)] = Hop{Edge: e, Depart: depart}
					next[u] = trail{hops: hops, at: arr}
				}
			}
		}
		if tr, ok := next[dst]; ok {
			j.Hops = tr.hops
			return j, true
		}
		if len(next) == 0 {
			break
		}
		layer = next
	}
	return j, false
}

// FastestJourney returns a journey from src to dst departing no earlier
// than start that minimizes duration (arrival - departure), scanning
// departure instants within the horizon.
func FastestJourney(g EvolvingGraph, src, dst, start, horizon int) (Journey, bool) {
	best := Journey{}
	found := false
	// No journey can beat one instant per hop along a shortest underlying
	// path, which on a ring is the ring distance.
	lower := g.Ring().Dist(src, dst)
	for s := start; s < horizon; s++ {
		j, ok := ForemostJourney(g, src, dst, s, horizon)
		if !ok {
			continue
		}
		if !found || j.Duration() < best.Duration() {
			best = j
			found = true
		}
		if found && best.Duration() == lower {
			break
		}
	}
	return best, found
}

// ConnectedOverTimeReport is the result of a finite-horizon verification of
// the connected-over-time property.
type ConnectedOverTimeReport struct {
	// OK is true when every probed (source, destination, start) triple has
	// a journey within the horizon.
	OK bool
	// Failures lists the violating triples, capped at 16 entries.
	Failures []JourneyProbe
	// MaxArrivalLag is the largest observed arrival-start over all probes.
	MaxArrivalLag int
}

// JourneyProbe identifies one reachability query of the verification.
type JourneyProbe struct {
	Src, Dst, Start int
}

// VerifyConnectedOverTime checks the paper's dynamicity assumption on a
// finite horizon: from each probe start time, every node must be reachable
// from every other through a journey completing before the horizon. An
// infinite connected-over-time graph satisfies this for every horizon large
// enough; generators in package dynamics are tested against it.
func VerifyConnectedOverTime(g EvolvingGraph, horizon int, starts []int) ConnectedOverTimeReport {
	r := g.Ring()
	rep := ConnectedOverTimeReport{OK: true}
	for _, s := range starts {
		for src := 0; src < r.Size(); src++ {
			arr := ForemostArrivals(g, src, s, horizon)
			for dst, a := range arr {
				if dst == src {
					continue
				}
				if a < 0 {
					rep.OK = false
					if len(rep.Failures) < 16 {
						rep.Failures = append(rep.Failures, JourneyProbe{Src: src, Dst: dst, Start: s})
					}
					continue
				}
				if lag := a - s; lag > rep.MaxArrivalLag {
					rep.MaxArrivalLag = lag
				}
			}
		}
	}
	return rep
}
