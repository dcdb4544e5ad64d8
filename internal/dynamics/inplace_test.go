package dynamics

import (
	"fmt"
	"math"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// kernelBuild returns, for an n-edge ring, the graph whose kernel runs
// and the graph whose Present is the reference. They are the same
// instance except for streaming families, which are stateful: there ref
// is a same-seed twin, so each instance sees one access path only.
type kernelBuild func(t *testing.T, n int) (g dyngraph.InPlaceGraph, ref dyngraph.EvolvingGraph)

// kernelCase is one input of TestInPlaceMatchesPresent.
type kernelCase struct {
	name  string
	build kernelBuild
}

// same adapts a stateless constructor to a kernelBuild.
func same(mk func(n int) dyngraph.InPlaceGraph) kernelBuild {
	return func(_ *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
		g := mk(n)
		return g, g
	}
}

// mustComposed builds a composition or fails the test.
func mustComposed(t *testing.T, mode string, members ...dyngraph.EvolvingGraph) *Composed {
	t.Helper()
	c, err := NewComposed(mode, members...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testPeriodic is a fixed periodic schedule with patterns of length 3.
func testPeriodic(t *testing.T, n int) *Periodic {
	pat := make([][]bool, n)
	for e := range pat {
		pat[e] = []bool{true, e%2 == 0, e%3 != 0}
	}
	p, err := NewPeriodic(n, pat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// markov builds a MarkovStream and its same-seed twin.
func markov(up, down float64, seed uint64) kernelBuild {
	return func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
		g, err := NewMarkovStream(n, up, down, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMarkovStream(n, up, down, seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g, ref
	}
}

// kernelCases lists every oblivious family, the compose modes, wrappers
// over a base without a kernel, and this package's dyngraph inputs.
func kernelCases() []kernelCase {
	return []kernelCase{
		{"bernoulli", same(func(n int) dyngraph.InPlaceGraph { return NewBernoulli(n, 0.6, 42) })},
		{"bernoulli-never", same(func(n int) dyngraph.InPlaceGraph { return NewBernoulli(n, 0, 42) })},
		{"bernoulli-always", same(func(n int) dyngraph.InPlaceGraph { return NewBernoulli(n, 1, 42) })},
		{"t-interval", same(func(n int) dyngraph.InPlaceGraph { return NewTInterval(n, 3, 7) })},
		{"roving", same(func(n int) dyngraph.InPlaceGraph { return NewRovingMissing(n, 4) })},
		{"periodic", func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
			p := testPeriodic(t, n)
			return p, p
		}},
		{"bounded", same(func(n int) dyngraph.InPlaceGraph {
			return NewBoundedRecurrence(NewBernoulli(n, 0.3, 9), 5, 13)
		})},
		{"bounded-delta-64", same(func(n int) dyngraph.InPlaceGraph {
			return NewBoundedRecurrence(NewBernoulli(n, 0.2, 9), 64, 13)
		})},
		{"bounded-delta-100", same(func(n int) dyngraph.InPlaceGraph {
			return NewBoundedRecurrence(NewBernoulli(n, 0.2, 9), 100, 13)
		})},
		{"bounded-huge-delta", same(func(n int) dyngraph.InPlaceGraph {
			return NewBoundedRecurrence(NewBernoulli(n, 0.3, 9), 1<<24, 13)
		})},
		{"chain", same(func(n int) dyngraph.InPlaceGraph {
			return NewChain(NewBoundedRecurrence(NewBernoulli(n, 0.5, 3), 4, 21), 6)
		})},
		{"compose-union", func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
			c := mustComposed(t, ComposeUnion, NewBernoulli(n, 0.3, 5), NewRovingMissing(n, 2))
			return c, c
		}},
		{"compose-intersect", func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
			c := mustComposed(t, ComposeIntersect,
				NewBernoulli(n, 0.8, 6), NewTInterval(n, 3, 8), NewBernoulli(n, 0.9, 7))
			return c, c
		}},
		{"compose-interleave", func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
			c := mustComposed(t, ComposeInterleave, NewBernoulli(n, 0.5, 7), testPeriodic(t, n))
			return c, c
		}},
		{"markov", markov(0.4, 0.25, 42)},
		{"markov-sticky", markov(1, 0, 8)},
		{"bounded-over-present", same(func(n int) dyngraph.InPlaceGraph {
			return NewBoundedRecurrence(presentOnly{r: ring.New(n)}, 4, 1)
		})},
		{"chain-over-present", same(func(n int) dyngraph.InPlaceGraph {
			return NewChain(presentOnly{r: ring.New(n)}, 2)
		})},
		{"intersect-over-present", func(t *testing.T, n int) (dyngraph.InPlaceGraph, dyngraph.EvolvingGraph) {
			c := mustComposed(t, ComposeIntersect, NewBernoulli(n, 0.5, 1), presentOnly{r: ring.New(n)})
			return c, c
		}},
		{"static", same(func(n int) dyngraph.InPlaceGraph { return dyngraph.NewStatic(n) })},
		{"eventual-missing", same(func(n int) dyngraph.InPlaceGraph {
			return dyngraph.NewEventualMissing(NewBernoulli(n, 0.7, 4), 4, 10)
		})},
		{"recorded", same(func(n int) dyngraph.InPlaceGraph {
			return dyngraph.Record(NewBernoulli(n, 0.5, 3), 50)
		})},
		{"recorded-empty", same(func(n int) dyngraph.InPlaceGraph { return dyngraph.NewRecorded(n) })},
	}
}

// TestInPlaceMatchesPresent checks that every E_t kernel produces exactly
// the edge set its Present function describes, instant by instant, on
// one- and multi-word rings and into a dirty dst — the invariant both
// engines' byte-identity rests on.
func TestInPlaceMatchesPresent(t *testing.T) {
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{11, 64, 65, 130} {
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					g, ref := tc.build(t, n)
					checkKernel(t, g, ref)
				})
			}
		})
	}
	// The integer acceptance bound against the float comparison, at
	// probabilities on and next to threshold-rounding boundaries.
	t.Run("bernoulli-sweep", func(t *testing.T) {
		for _, p := range []float64{
			0, 1e-12, 0.1, 0.25, math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
			1.0 / 3, math.Nextafter(1.0/3, 0), math.Nextafter(1.0/3, 1),
			0.5, math.Nextafter(0.5, 1), 0.7, 0.99999, math.Nextafter(1, 0), 1,
		} {
			b := NewBernoulli(65, p, 99)
			checkKernel(t, b, b)
		}
	})
}

// checkKernel compares g's kernel with ref's Present for t in [-1, 200].
// dst starts at the wrong size and is refilled before every call, so a
// kernel that skips a word or leaves stale bits fails.
func checkKernel(t *testing.T, g dyngraph.InPlaceGraph, ref dyngraph.EvolvingGraph) {
	t.Helper()
	n := ref.Ring().Edges()
	dst := ring.FullEdgeSet(n + 3)
	for instant := -1; instant <= 200; instant++ {
		if dst.Size() == n {
			dst.Fill()
		}
		g.EdgesAtInto(instant, &dst)
		if dst.Size() != n {
			t.Fatalf("t=%d: set size %d, want %d", instant, dst.Size(), n)
		}
		present := 0
		for e := 0; e < n; e++ {
			want := ref.Present(e, instant)
			if want {
				present++
			}
			if got := dst.Contains(e); got != want {
				t.Fatalf("t=%d edge %d: kernel says %v, Present says %v", instant, e, got, want)
			}
		}
		if dst.Count() != present {
			t.Fatalf("t=%d: %d bits set for %d present edges", instant, dst.Count(), present)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { g.EdgesAtInto(200, &dst) }); allocs != 0 {
		t.Fatalf("steady-state kernel call allocates %.0f times", allocs)
	}
}

// TestEdgeWordMatchesInPlace checks that the presence word the lockstep
// engine reads for a lane (bit 0 of LaneColumns' columns) equals the first
// word of the set the scalar engine gets from EdgesInto, instant by
// instant, and that every family is served by its kernel, not by the
// Present fallback.
func TestEdgeWordMatchesInPlace(t *testing.T) {
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			g, ref := tc.build(t, 11)
			checkLaneWord(t, g, ref)
		})
	}
	t.Run("markov-64", func(t *testing.T) {
		g, ref := markov(0.3, 0.6, 5)(t, 64)
		checkLaneWord(t, g, ref)
	})
}

// checkLaneWord compares g's lane word with ref's EdgesInto word for t in
// [-1, 200). g and ref are distinct instances only for streaming families.
func checkLaneWord(t *testing.T, g dyngraph.InPlaceGraph, ref dyngraph.EvolvingGraph) {
	t.Helper()
	graphs := []dyngraph.EvolvingGraph{g}
	sets := make([]ring.EdgeSet, 1)
	cols := make([]uint64, ref.Ring().Edges())
	var dst ring.EdgeSet
	for instant := -1; instant < 200; instant++ {
		if k := dyngraph.LaneColumns(graphs, sets, 1, instant, cols); k != 1 {
			t.Fatalf("t=%d: %d kernel lanes, want 1", instant, k)
		}
		var w uint64
		for e, c := range cols {
			w |= (c & 1) << uint(e)
		}
		dyngraph.EdgesInto(ref, instant, &dst)
		if want := dst.Word(0); w != want {
			t.Fatalf("t=%d: lane word %#x, set word %#x", instant, w, want)
		}
	}
}

// TestInPlaceMarkovSweep sweeps the chain's (up, down) probabilities —
// the absorbing corners, 1/3 and neighbours of threshold-rounding
// boundaries — and checks every transition the kernel reports against
// Source.Bool on a replay of the same sequential draws: the integer
// threshold kernel must reproduce the float comparison bit for bit.
func TestInPlaceMarkovSweep(t *testing.T) {
	const n, seed, horizon = 13, 77, 300
	probs := []float64{
		1e-12, 0.1, 0.25, math.Nextafter(0.25, 0), math.Nextafter(0.25, 1),
		1.0 / 3, math.Nextafter(1.0/3, 0), math.Nextafter(1.0/3, 1),
		0.5, math.Nextafter(0.5, 0), 0.7, 0.99999, math.Nextafter(1, 0), 1,
	}
	var dst ring.EdgeSet
	for _, up := range probs {
		for _, down := range append([]float64{0}, probs...) {
			m, err := NewMarkovStream(n, up, down, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref := prng.NewSource(seed)
			prev := uint64(1)<<n - 1
			for instant := 0; instant < horizon; instant++ {
				m.EdgesAtInto(instant, &dst)
				w := dst.Word(0)
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

// presentOnly is an EvolvingGraph without a kernel.
type presentOnly struct{ r ring.Ring }

func (g presentOnly) Ring() ring.Ring       { return g.r }
func (g presentOnly) Present(e, t int) bool { return g.r.ValidEdge(e) && t >= 0 }
