package dynamics

import (
	"math"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// TestEdgeWordMatchesInPlace checks that every family's word fast path
// reports exactly the presence word of its EdgesAtInto set, instant by
// instant — the invariant that lets the lockstep engine skip the EdgeSet.
func TestEdgeWordMatchesInPlace(t *testing.T) {
	const n = 11
	pat := make([][]bool, n)
	for e := range pat {
		pat[e] = []bool{true, e%2 == 0, e%3 != 0}
	}
	periodic, err := NewPeriodic(n, pat)
	if err != nil {
		t.Fatal(err)
	}
	union, err := NewComposed(ComposeUnion, NewBernoulli(n, 0.3, 5), NewRovingMissing(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	intersect, err := NewComposed(ComposeIntersect, NewBernoulli(n, 0.8, 6), NewTInterval(n, 3, 8))
	if err != nil {
		t.Fatal(err)
	}
	interleave, err := NewComposed(ComposeInterleave, NewBernoulli(n, 0.5, 7), periodic)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming families are stateful: set is a same-seed twin of g read
	// through EdgesInto, so each instance sees one access path only.
	markov := func(n int, up, down float64, seed uint64) dyngraph.WordGraph {
		m, err := NewMarkovStream(n, up, down, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	graphs := []struct {
		name   string
		g, set dyngraph.WordGraph
	}{
		{"bernoulli", NewBernoulli(n, 0.6, 42), nil},
		{"bernoulli-never", NewBernoulli(n, 0, 42), nil},
		{"bernoulli-always", NewBernoulli(n, 1, 42), nil},
		{"t-interval", NewTInterval(n, 3, 7), nil},
		{"roving", NewRovingMissing(n, 4), nil},
		{"periodic", periodic, nil},
		{"bounded", NewBoundedRecurrence(NewBernoulli(n, 0.3, 9), 5, 13), nil},
		{"chain", NewChain(NewBoundedRecurrence(NewBernoulli(n, 0.5, 3), 4, 21), 6), nil},
		{"compose-union", union, nil},
		{"compose-intersect", intersect, nil},
		{"compose-interleave", interleave, nil},
		{"markov", markov(n, 0.4, 0.25, 42), markov(n, 0.4, 0.25, 42)},
		{"markov-sticky", markov(n, 1, 0, 8), markov(n, 1, 0, 8)},
		{"markov-64", markov(64, 0.3, 0.6, 5), markov(64, 0.3, 0.6, 5)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			if tc.set == nil {
				tc.set = tc.g
			}
			var dst ring.EdgeSet
			for instant := -1; instant < 200; instant++ {
				dyngraph.EdgesInto(tc.set, instant, &dst)
				w, ok := tc.g.EdgeWordAt(instant)
				if !ok {
					t.Fatalf("t=%d: word path unexpectedly unavailable", instant)
				}
				if want := dst.Word(0); w != want {
					t.Fatalf("t=%d: word %#x, set word %#x", instant, w, want)
				}
			}
		})
	}
}

// TestEdgeWordProbabilitySweep sweeps Bernoulli probabilities — including
// awkward ones near the threshold-rounding boundaries — to pin the integer
// acceptance bound against the float comparison at scale.
func TestEdgeWordProbabilitySweep(t *testing.T) {
	const n = 13
	for _, p := range []float64{0, 1e-12, 0.1, 0.25, 1.0 / 3, 0.5, 0.7, 0.99999, 1} {
		b := NewBernoulli(n, p, 99)
		var dst ring.EdgeSet
		for instant := 0; instant < 300; instant++ {
			dyngraph.EdgesInto(b, instant, &dst)
			w, ok := b.EdgeWordAt(instant)
			if !ok || w != dst.Word(0) {
				t.Fatalf("p=%v t=%d: word %#x ok=%v, set word %#x", p, instant, w, ok, dst.Word(0))
			}
		}
	}
}

// TestMarkovEdgeWordSweep sweeps the chain's (up, down) probabilities —
// the absorbing corners, 1/3 and neighbours of threshold-rounding
// boundaries — and checks every transition the word path reports against
// Source.Bool on a replay of the same sequential draws: the integer
// threshold kernel must reproduce the float comparison bit for bit.
func TestMarkovEdgeWordSweep(t *testing.T) {
	const n, seed, horizon = 13, 77, 300
	probs := []float64{
		1e-12, 0.1, 0.25, math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
		1.0 / 3, math.Nextafter(1.0/3, 0), math.Nextafter(1.0/3, 1),
		0.5, math.Nextafter(0.5, 0), 0.7, 0.99999, math.Nextafter(1, 0), 1,
	}
	for _, up := range probs {
		for _, down := range append([]float64{0}, probs...) {
			m, err := NewMarkovStream(n, up, down, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref := prng.NewSource(seed)
			prev := edgeMask(n)
			for instant := 0; instant < horizon; instant++ {
				w, ok := m.EdgeWordAt(instant)
				if !ok {
					t.Fatalf("up=%v down=%v t=%d: word path unavailable", up, down, instant)
				}
				if instant == 0 {
					if w != prev {
						t.Fatalf("up=%v down=%v: initial word %#x, want all edges", up, down, w)
					}
					continue
				}
				for e := 0; e < n; e++ {
					was := prev>>uint(e)&1 != 0
					p := up
					if was {
						p = down
					}
					if is := w>>uint(e)&1 != 0; (is != was) != ref.Bool(p) {
						t.Fatalf("up=%v down=%v t=%d edge %d: %v -> %v disagrees with Source.Bool(%v)",
							up, down, instant, e, was, is, p)
					}
				}
				prev = w
			}
		}
	}
}

// TestEdgeWordUnavailable checks that wrappers over word-less bases decline
// the fast path instead of fabricating words.
func TestEdgeWordUnavailable(t *testing.T) {
	base := presentOnly{r: ring.New(8)}
	for name, g := range map[string]dyngraph.WordGraph{
		"bounded": NewBoundedRecurrence(base, 4, 1),
		"chain":   NewChain(base, 2),
	} {
		if _, ok := g.EdgeWordAt(5); ok {
			t.Errorf("%s over a word-less base claims the fast path", name)
		}
	}
	comp, err := NewComposed(ComposeIntersect, NewBernoulli(8, 0.5, 1), base)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := comp.EdgeWordAt(5); ok {
		t.Error("composition with a word-less member claims the fast path")
	}
	wide, err := NewMarkovStream(65, 0.5, 0.5, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, instant := range []int{-1, 0, 5} {
		if _, ok := wide.EdgeWordAt(instant); ok {
			t.Errorf("markov on a 65-edge ring claims the fast path at t=%d", instant)
		}
	}
}

// presentOnly is an EvolvingGraph without in-place or word fast paths.
type presentOnly struct{ r ring.Ring }

func (g presentOnly) Ring() ring.Ring       { return g.r }
func (g presentOnly) Present(e, t int) bool { return g.r.ValidEdge(e) && t >= 0 }
