// Package ring models the static ring topology underlying every
// connected-over-time graph considered in the paper (Bournat, Dubois, Petit,
// ICDCS 2017): an anonymous, unoriented ring of n nodes.
//
// Conventions (fixed once for the whole repository):
//
//   - Nodes are indexed 0..n-1.
//   - Edge i joins node i and node (i+1) mod n.
//   - The global clockwise direction from node v crosses edge v and arrives
//     at node (v+1) mod n; counter-clockwise crosses edge (v-1+n) mod n.
//
// "Clockwise" is the label used by the external observer of Section 2.1 of
// the paper; robots themselves never see it (they only have chirality, see
// package robot).
package ring

import (
	"fmt"
)

// Direction is a global direction on the ring, visible only to the external
// observer (the simulator and the checkers), never to robots.
type Direction int8

const (
	// CW is the global clockwise direction (increasing node index).
	CW Direction = 1
	// CCW is the global counter-clockwise direction (decreasing node index).
	CCW Direction = -1
)

// Opposite returns the reverse global direction.
func (d Direction) Opposite() Direction { return -d }

// String returns "CW" or "CCW".
func (d Direction) String() string {
	switch d {
	case CW:
		return "CW"
	case CCW:
		return "CCW"
	default:
		return fmt.Sprintf("Direction(%d)", int8(d))
	}
}

// Valid reports whether d is one of CW, CCW.
func (d Direction) Valid() bool { return d == CW || d == CCW }

// MinSize is the smallest ring the model admits. A 2-node ring is the
// degenerate case discussed in Section 5.2 of the paper (either a simple
// 2-node chain or a 2-node multigraph with two parallel edges; see Multi2).
const MinSize = 2

// Ring is a static ring of N nodes. The zero value is not valid; use New.
type Ring struct {
	n int
}

// New returns a ring with n nodes. It panics if n < MinSize, since no object
// of the paper's model exists below that size.
func New(n int) Ring {
	if n < MinSize {
		panic(fmt.Sprintf("ring: size %d below minimum %d", n, MinSize))
	}
	return Ring{n: n}
}

// Size returns the number of nodes (which equals the number of edges).
func (r Ring) Size() int { return r.n }

// Edges returns the number of edges of the underlying ring. For a ring this
// equals the number of nodes; it is provided for readability at call sites.
func (r Ring) Edges() int { return r.n }

// Node normalizes an arbitrary integer to a node index in [0, n). Next,
// EdgeTowards and EdgeEndpoints on a valid node pass values in [-1, n],
// which return without a division; anything further out takes the %.
func (r Ring) Node(v int) int {
	switch {
	case uint(v) < uint(r.n):
		return v
	case v == -1:
		return r.n - 1
	case v == r.n:
		return 0
	}
	v %= r.n
	if v < 0 {
		v += r.n
	}
	return v
}

// ValidNode reports whether v is a node index of the ring.
func (r Ring) ValidNode(v int) bool { return v >= 0 && v < r.n }

// ValidEdge reports whether e is an edge index of the ring.
func (r Ring) ValidEdge(e int) bool { return e >= 0 && e < r.n }

// Next returns the node adjacent to v in global direction d.
func (r Ring) Next(v int, d Direction) int {
	return r.Node(v + int(d))
}

// EdgeTowards returns the edge index crossed when leaving node v in global
// direction d.
func (r Ring) EdgeTowards(v int, d Direction) int {
	if d == CW {
		return v
	}
	return r.Node(v - 1)
}

// EdgeEndpoints returns the two endpoints of edge e, in (low, high mod n)
// order: edge e joins e and (e+1) mod n.
func (r Ring) EdgeEndpoints(e int) (int, int) {
	return e, r.Node(e + 1)
}

// EdgeBetween returns the edge joining adjacent nodes u and v and true, or
// (0, false) if u and v are not adjacent (or equal).
func (r Ring) EdgeBetween(u, v int) (int, bool) {
	switch {
	case r.Node(u+1) == v:
		return u, true
	case r.Node(v+1) == u:
		return v, true
	default:
		return 0, false
	}
}

// CWDist returns the number of clockwise hops from u to v (in [0, n)).
func (r Ring) CWDist(u, v int) int {
	return r.Node(v - u)
}

// Dist returns the ring distance between nodes u and v, i.e. the length of a
// shortest path in the underlying graph (Section 2.1 of the paper).
func (r Ring) Dist(u, v int) int {
	cw := r.CWDist(u, v)
	if ccw := r.n - cw; ccw < cw {
		return ccw
	}
	return cw
}

// TowardsOf returns the global direction of a shortest route from u to v,
// preferring CW on ties. It panics if u == v, where no direction is defined.
func (r Ring) TowardsOf(u, v int) Direction {
	if u == v {
		panic("ring: TowardsOf called with identical nodes")
	}
	cw := r.CWDist(u, v)
	if cw <= r.n-cw {
		return CW
	}
	return CCW
}

// Walk returns the node reached from v after crossing steps edges in global
// direction d. Negative steps walk the opposite way.
func (r Ring) Walk(v, steps int, d Direction) int {
	return r.Node(v + steps*int(d))
}

// PathNodes returns the nodes traversed (inclusive of both ends) when
// walking from u to v in global direction d. The result has CWDist or
// n-CWDist+... length depending on the direction; it always terminates
// because the ring is finite.
func (r Ring) PathNodes(u, v int, d Direction) []int {
	nodes := make([]int, 0, r.n+1)
	cur := u
	nodes = append(nodes, cur)
	for cur != v {
		cur = r.Next(cur, d)
		nodes = append(nodes, cur)
	}
	return nodes
}

// String implements fmt.Stringer.
func (r Ring) String() string { return fmt.Sprintf("Ring(n=%d)", r.n) }
