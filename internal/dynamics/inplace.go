package dynamics

import (
	"math/bits"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// This file holds every oblivious family's E_t kernel
// (dyngraph.InPlaceGraph), the one way both engines read a presence set:
// the scalar engine once per round, the lane engine once per lane and
// round. Present stays the per-edge reference the tests compare the
// kernels against, bit for bit, on rings of any width. Each kernel builds
// its presence words locally and stores them with one SetWord per 64
// edges, and does per instant only the work that depends on t: Bernoulli
// pays one SplitMix64 finalizer per edge instead of Hash3's three, and
// BoundedRecurrence looks its forced edges up instead of hashing them.

// ensureEdges resizes dst to n edges when its capacity disagrees.
func ensureEdges(dst *ring.EdgeSet, n int) {
	if dst.Size() != n {
		*dst = ring.NewEdgeSet(n)
	}
}

// wordSpan returns the [base, base+span) edge range of word wi over n
// edges.
func wordSpan(wi, n int) (base, span int) {
	base = wi * 64
	span = n - base
	if span > 64 {
		span = 64
	}
	return base, span
}

// EdgesAtInto implements dyngraph.InPlaceGraph. Edge e is present when the
// 53-bit variate of its (seed, e) stream at t falls under the threshold,
// which is BoolAt's float comparison by prng.Threshold53.
func (b *Bernoulli) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := b.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	ut, thr := uint64(t), b.thr
	for wi := 0; wi < dst.Words(); wi++ {
		base, span := wordSpan(wi, n)
		// Branch-free, constant shifts only: the bit of each edge (the
		// borrow of draw-thr, both at most 2^53) enters at the top of w.
		var w uint64
		for _, prefix := range b.prefix[base : base+span] {
			w = w>>1 | (prng.At3(prefix, ut)>>11-thr)&(1<<63)
		}
		dst.SetWord(wi, w>>(64-span))
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (g *TInterval) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := g.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	dst.Fill()
	if window := uint64(t / g.t); window%2 == 0 {
		if pick := prng.UintnAt(g.seed, 0xD15C0, window/2, n+1); pick != n {
			dst.Remove(pick)
		}
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (g *RovingMissing) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := g.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	dst.Fill()
	dst.Remove((t / g.period) % n)
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (p *Periodic) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := p.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	for wi := 0; wi < dst.Words(); wi++ {
		base, span := wordSpan(wi, n)
		var w uint64
		for i, pat := range p.patterns[base : base+span] {
			if pat[t%len(pat)] {
				w |= 1 << uint(i)
			}
		}
		dst.SetWord(wi, w)
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph: the base set plus the
// edges whose forced phase is t mod delta.
func (g *BoundedRecurrence) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t < 0 {
		ensureEdges(dst, g.base.Ring().Edges())
		dst.Clear()
		return
	}
	dyngraph.EdgesInto(g.base, t, dst)
	r := t % g.delta
	row := g.forced[r%64*dst.Words():]
	for wi := 0; wi < dst.Words(); wi++ {
		w := row[wi]
		for cand := w; g.delta > 64 && cand != 0; cand &= cand - 1 {
			if g.phase(wi*64+bits.TrailingZeros64(cand)) != r {
				w &^= cand & -cand
			}
		}
		dst.SetWord(wi, dst.Word(wi)|w)
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph: the base set minus the
// permanent cut.
func (c *Chain) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t < 0 {
		ensureEdges(dst, c.base.Ring().Edges())
		dst.Clear()
		return
	}
	dyngraph.EdgesInto(c.base, t, dst)
	dst.Remove(c.missing)
}

// EdgesAtInto implements dyngraph.InPlaceGraph: the members' sets folded
// under the composition mode. Union and intersect read every member after
// the first through a scratch set the graph keeps, so a Composed is not
// safe for concurrent use.
func (c *Composed) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t < 0 {
		ensureEdges(dst, c.r.Edges())
		dst.Clear()
		return
	}
	if c.mode == ComposeInterleave {
		dyngraph.EdgesInto(c.members[t%len(c.members)], t, dst)
		return
	}
	union := c.mode == ComposeUnion
	dyngraph.EdgesInto(c.members[0], t, dst)
	for _, m := range c.members[1:] {
		dyngraph.EdgesInto(m, t, &c.scratch)
		for wi := 0; wi < dst.Words(); wi++ {
			if union {
				dst.SetWord(wi, dst.Word(wi)|c.scratch.Word(wi))
			} else {
				dst.SetWord(wi, dst.Word(wi)&c.scratch.Word(wi))
			}
		}
	}
}

// verify interface compliance at compile time.
var (
	_ dyngraph.InPlaceGraph = (*Bernoulli)(nil)
	_ dyngraph.InPlaceGraph = (*TInterval)(nil)
	_ dyngraph.InPlaceGraph = (*RovingMissing)(nil)
	_ dyngraph.InPlaceGraph = (*Periodic)(nil)
	_ dyngraph.InPlaceGraph = (*BoundedRecurrence)(nil)
	_ dyngraph.InPlaceGraph = (*Chain)(nil)
	_ dyngraph.InPlaceGraph = (*Composed)(nil)
	_ dyngraph.InPlaceGraph = (*MarkovStream)(nil)
)
