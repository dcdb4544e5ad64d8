package ring

import (
	"fmt"
	"math/bits"
	"strings"
)

// EdgeSet is a fixed-capacity bitset over the edge indices of a ring. It is
// the presence set E_t of an evolving graph at one instant: bit e is set iff
// edge e is present. EdgeSet values are small and copied freely; all methods
// with a pointer receiver mutate in place, all methods with a value receiver
// are pure.
type EdgeSet struct {
	n     int
	words []uint64
}

const wordBits = 64

// NewEdgeSet returns an empty edge set over n edges.
func NewEdgeSet(n int) EdgeSet {
	if n < 0 {
		panic("ring: negative EdgeSet size")
	}
	return EdgeSet{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FullEdgeSet returns the set containing every edge index in [0, n).
func FullEdgeSet(n int) EdgeSet {
	s := NewEdgeSet(n)
	s.Fill()
	return s
}

// EdgeSetOf returns the set over n edges containing exactly the listed edges.
func EdgeSetOf(n int, edges ...int) EdgeSet {
	s := NewEdgeSet(n)
	for _, e := range edges {
		s.Add(e)
	}
	return s
}

// Size returns the capacity n of the set (number of edge indices).
func (s EdgeSet) Size() int { return s.n }

// Contains reports whether edge e is in the set. Out-of-range indices are
// never contained.
func (s EdgeSet) Contains(e int) bool {
	if e < 0 || e >= s.n {
		return false
	}
	return s.words[e/wordBits]&(1<<(uint(e)%wordBits)) != 0
}

// Add inserts edge e. It panics on out-of-range indices: silently dropping
// an edge would corrupt an adversary schedule.
func (s *EdgeSet) Add(e int) {
	s.check(e)
	s.words[e/wordBits] |= 1 << (uint(e) % wordBits)
}

// Remove deletes edge e from the set.
func (s *EdgeSet) Remove(e int) {
	s.check(e)
	s.words[e/wordBits] &^= 1 << (uint(e) % wordBits)
}

func (s *EdgeSet) check(e int) {
	if e < 0 || e >= s.n {
		panic(fmt.Sprintf("ring: edge %d out of range [0,%d)", e, s.n))
	}
}

// Count returns the number of edges in the set.
func (s EdgeSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsFull reports whether every edge index in [0, n) is present.
func (s EdgeSet) IsFull() bool { return s.Count() == s.n }

// IsEmpty reports whether no edge is present.
func (s EdgeSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s EdgeSet) Clone() EdgeSet {
	c := EdgeSet{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes every edge from the set in place.
func (s *EdgeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every edge index in [0, n) in place: each word goes to all
// ones and the tail word is masked to the set's n bits, so no bit beyond
// n is ever set.
func (s *EdgeSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := uint(s.n) % wordBits; r != 0 {
		s.words[len(s.words)-1] = 1<<r - 1
	}
}

// CopyFrom overwrites the set with the contents of o, reusing the backing
// words when the capacities match and reallocating otherwise. It is the
// in-place counterpart of Clone for pooled presence sets.
func (s *EdgeSet) CopyFrom(o EdgeSet) {
	if len(s.words) != len(o.words) {
		s.words = make([]uint64, len(o.words))
	}
	s.n = o.n
	copy(s.words, o.words)
}

// Without returns a copy of the set with the listed edges removed.
func (s EdgeSet) Without(edges ...int) EdgeSet {
	c := s.Clone()
	for _, e := range edges {
		c.Remove(e)
	}
	return c
}

// With returns a copy of the set with the listed edges added.
func (s EdgeSet) With(edges ...int) EdgeSet {
	c := s.Clone()
	for _, e := range edges {
		c.Add(e)
	}
	return c
}

// Union returns the elementwise union of s and o. Both sets must have the
// same capacity.
func (s EdgeSet) Union(o EdgeSet) EdgeSet {
	s.checkSame(o)
	c := s.Clone()
	for i, w := range o.words {
		c.words[i] |= w
	}
	return c
}

// Intersect returns the elementwise intersection of s and o.
func (s EdgeSet) Intersect(o EdgeSet) EdgeSet {
	s.checkSame(o)
	c := s.Clone()
	for i, w := range o.words {
		c.words[i] &= w
	}
	return c
}

// Equal reports whether the two sets have the same capacity and elements.
func (s EdgeSet) Equal(o EdgeSet) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

func (s EdgeSet) checkSame(o EdgeSet) {
	if s.n != o.n {
		panic(fmt.Sprintf("ring: EdgeSet size mismatch %d vs %d", s.n, o.n))
	}
}

// Edges returns the contained edge indices in increasing order.
func (s EdgeSet) Edges() []int {
	out := make([]int, 0, s.Count())
	for e := 0; e < s.n; e++ {
		if s.Contains(e) {
			out = append(out, e)
		}
	}
	return out
}

// Missing returns the absent edge indices in increasing order.
func (s EdgeSet) Missing() []int {
	out := make([]int, 0, s.n-s.Count())
	for e := 0; e < s.n; e++ {
		if !s.Contains(e) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the set as e.g. "{0,2,5}/8".
func (s EdgeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, e := range s.Edges() {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", e)
	}
	fmt.Fprintf(&b, "}/%d", s.n)
	return b.String()
}

// ConnectedAsRing reports whether the subgraph of the n-node ring retaining
// exactly the edges of s is connected. A ring snapshot is connected iff at
// most one edge is missing.
func (s EdgeSet) ConnectedAsRing() bool {
	return s.n-s.Count() <= 1
}
