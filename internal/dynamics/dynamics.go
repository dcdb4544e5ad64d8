// Package dynamics provides the library of oblivious (position-independent)
// dynamics classes used as workloads by the experiments: stochastic,
// periodic, interval-connected, and permanently-damaged rings. Each class
// implements dyngraph.EvolvingGraph as a pure function of (edge, time), so
// all analyses are random-access and every run is reproducible from a seed.
//
// Adaptive adversaries — those reacting to robot positions, as in the
// impossibility proofs — live in package adversary instead, because they
// cannot be pure functions of (edge, time).
package dynamics

import (
	"fmt"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// Bernoulli is the memoryless stochastic ring: each edge is present at each
// instant independently with probability P. For any P > 0 it is
// connected-over-time with probability 1 (every edge is present infinitely
// often), making it the canonical "highly dynamic, no stability assumption"
// workload of the paper's introduction.
type Bernoulli struct {
	r    ring.Ring
	p    float64
	seed uint64

	// Kernel tables (inplace.go): the per-edge Stream3 prefixes and the
	// integer acceptance threshold of p.
	prefix []uint64
	thr    uint64
}

// NewBernoulli returns a Bernoulli(p) dynamics over an n-node ring. It
// panics if p is outside [0, 1].
func NewBernoulli(n int, p float64, seed uint64) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("dynamics: Bernoulli probability %v outside [0,1]", p))
	}
	r := ring.New(n)
	prefix := make([]uint64, r.Edges())
	for e := range prefix {
		prefix[e] = prng.Stream3(seed, uint64(e))
	}
	return &Bernoulli{r: r, p: p, seed: seed, prefix: prefix, thr: prng.Threshold53(p)}
}

// Ring implements dyngraph.EvolvingGraph.
func (b *Bernoulli) Ring() ring.Ring { return b.r }

// Present implements dyngraph.EvolvingGraph.
func (b *Bernoulli) Present(e, t int) bool {
	if !b.r.ValidEdge(e) || t < 0 {
		return false
	}
	return prng.BoolAt(b.seed, uint64(e), uint64(t), b.p)
}

// Periodic is the periodically-varying ring of Flocchini, Mans and Santoro:
// edge e is present at t iff its pattern bit at t mod len(pattern) is set.
// The subway example builds timetables on top of it.
type Periodic struct {
	r        ring.Ring
	patterns [][]bool
}

// NewPeriodic builds a periodic dynamics from one presence pattern per edge.
// Patterns may have different lengths; each must be non-empty and contain at
// least one true bit (otherwise the edge would never appear and the graph
// could not be connected-over-time).
func NewPeriodic(n int, patterns [][]bool) (*Periodic, error) {
	if len(patterns) != n {
		return nil, fmt.Errorf("dynamics: %d patterns for %d edges", len(patterns), n)
	}
	cp := make([][]bool, n)
	for e, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("dynamics: empty pattern for edge %d", e)
		}
		hasTrue := false
		for _, bit := range p {
			hasTrue = hasTrue || bit
		}
		if !hasTrue {
			return nil, fmt.Errorf("dynamics: pattern for edge %d never present", e)
		}
		cp[e] = append([]bool(nil), p...)
	}
	return &Periodic{r: ring.New(n), patterns: cp}, nil
}

// Ring implements dyngraph.EvolvingGraph.
func (p *Periodic) Ring() ring.Ring { return p.r }

// Present implements dyngraph.EvolvingGraph.
func (p *Periodic) Present(e, t int) bool {
	if !p.r.ValidEdge(e) || t < 0 {
		return false
	}
	pat := p.patterns[e]
	return pat[t%len(pat)]
}

// TInterval is a T-interval-connected ring (Kuhn, Lynch, Oshman; the setting
// of Di Luna et al. and Ilcinkas–Wade): every window of T consecutive
// instants shares a stable connected spanning subgraph. The generator
// alternates "damaged" windows of T instants (one pseudo-randomly chosen
// edge missing, or none) with fully-present windows of T instants, so any
// window of length T overlaps at most one damaged phase and its
// intersection misses at most one edge — genuinely T-interval-connected,
// not merely per-phase stable.
type TInterval struct {
	r    ring.Ring
	t    int
	seed uint64
}

// NewTInterval returns a T-interval-connected dynamics with the given
// window length t >= 1.
func NewTInterval(n, t int, seed uint64) *TInterval {
	if t <= 0 {
		panic(fmt.Sprintf("dynamics: non-positive interval length %d", t))
	}
	return &TInterval{r: ring.New(n), t: t, seed: seed}
}

// Ring implements dyngraph.EvolvingGraph.
func (g *TInterval) Ring() ring.Ring { return g.r }

// Present implements dyngraph.EvolvingGraph.
func (g *TInterval) Present(e, t int) bool {
	if !g.r.ValidEdge(e) || t < 0 {
		return false
	}
	window := uint64(t / g.t)
	if window%2 == 1 {
		// Recovery window: everything present.
		return true
	}
	// Damaged window: n+1 outcomes — one per removable edge, plus
	// "remove nothing".
	pick := prng.UintnAt(g.seed, 0xD15C0, window/2, g.r.Edges()+1)
	return pick == g.r.Edges() || pick != e
}

// BoundedRecurrence wraps any dynamics and guarantees the recurrence bound
// Δ: edge e is forced present whenever t ≡ phase(e) (mod Δ), regardless of
// the base generator. Experiment E-X2 sweeps Δ to measure how PEF_3+'s
// revisit gap scales with edge recurrence.
type BoundedRecurrence struct {
	base  dyngraph.EvolvingGraph
	delta int
	seed  uint64

	// Kernel table (inplace.go): row p of forced, ⌈n/64⌉ words, holds
	// the edges whose forced phase is p mod min(delta, 64), so it takes
	// O(n) memory whatever delta is. For delta <= 64 the row of instant t
	// is exactly its forced set; beyond, its candidates are rechecked.
	forced []uint64
}

// NewBoundedRecurrence wraps base with recurrence bound delta >= 1.
func NewBoundedRecurrence(base dyngraph.EvolvingGraph, delta int, seed uint64) *BoundedRecurrence {
	if delta < 1 {
		panic(fmt.Sprintf("dynamics: recurrence bound %d below 1", delta))
	}
	n := base.Ring().Edges()
	words := (n + 63) / 64
	g := &BoundedRecurrence{base: base, delta: delta, seed: seed, forced: make([]uint64, min(delta, 64)*words)}
	for e := range n {
		g.forced[g.phase(e)%64*words+e/64] |= 1 << uint(e%64)
	}
	return g
}

// phase returns the residue mod delta at which edge e is forced present.
func (g *BoundedRecurrence) phase(e int) int {
	return prng.UintnAt(g.seed, 0xFA5E, uint64(e), g.delta)
}

// Ring implements dyngraph.EvolvingGraph.
func (g *BoundedRecurrence) Ring() ring.Ring { return g.base.Ring() }

// Present implements dyngraph.EvolvingGraph.
func (g *BoundedRecurrence) Present(e, t int) bool {
	if !g.base.Ring().ValidEdge(e) || t < 0 {
		return false
	}
	if t%g.delta == g.phase(e) {
		return true
	}
	return g.base.Present(e, t)
}

// Delta returns the recurrence bound.
func (g *BoundedRecurrence) Delta() int { return g.delta }

// Chain is a connected-over-time chain: the ring with one edge permanently
// absent from time zero. Its eventual underlying graph is an n-node chain,
// which is connected, so all of the paper's results apply (Section 1,
// "our results are also valid on connected-over-time chains").
type Chain struct {
	base    dyngraph.EvolvingGraph
	missing int
}

// NewChain removes edge missing from base forever.
func NewChain(base dyngraph.EvolvingGraph, missing int) *Chain {
	if !base.Ring().ValidEdge(missing) {
		panic(fmt.Sprintf("dynamics: invalid chain cut edge %d", missing))
	}
	return &Chain{base: base, missing: missing}
}

// Ring implements dyngraph.EvolvingGraph.
func (c *Chain) Ring() ring.Ring { return c.base.Ring() }

// Present implements dyngraph.EvolvingGraph.
func (c *Chain) Present(e, t int) bool {
	return e != c.missing && c.base.Present(e, t)
}

// CutEdge returns the permanently missing edge.
func (c *Chain) CutEdge() int { return c.missing }

// RovingMissing removes a single edge at every instant, rotating which edge
// is missing every period instants (edge t/period mod n). Every snapshot is
// a connected chain and every edge is recurrent: a harsh but fair dynamics.
type RovingMissing struct {
	r      ring.Ring
	period int
}

// NewRovingMissing returns the roving-missing-edge dynamics.
func NewRovingMissing(n, period int) *RovingMissing {
	if period <= 0 {
		panic(fmt.Sprintf("dynamics: non-positive roving period %d", period))
	}
	return &RovingMissing{r: ring.New(n), period: period}
}

// Ring implements dyngraph.EvolvingGraph.
func (g *RovingMissing) Ring() ring.Ring { return g.r }

// Present implements dyngraph.EvolvingGraph.
func (g *RovingMissing) Present(e, t int) bool {
	if !g.r.ValidEdge(e) || t < 0 {
		return false
	}
	return (t/g.period)%g.r.Edges() != e
}
