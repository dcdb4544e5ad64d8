package dynamics

import (
	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// This file gives every oblivious family an in-place materialization fast
// path (dyngraph.InPlaceGraph): presence words are built locally and
// stored with one SetWord per 64 edges, instead of a per-edge interface
// dispatch plus bitset Add. The bits are identical to the Present-based
// generic path — the per-(edge, time) pseudo-randomness is the same
// function — which families_test.go verifies edge by edge; the fast path
// only removes dispatch overhead on the campaign hot loop.

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

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (b *Bernoulli) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := b.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	for wi := 0; wi < dst.Words(); wi++ {
		base, span := wordSpan(wi, n)
		var w uint64
		for i := 0; i < span; i++ {
			if prng.BoolAt(b.seed, uint64(base+i), uint64(t), b.p) {
				w |= 1 << uint(i)
			}
		}
		dst.SetWord(wi, w)
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
	missing := -1
	window := uint64(t / g.t)
	if window%2 == 0 {
		if pick := prng.UintnAt(g.seed, 0xD15C0, window/2, n+1); pick != n {
			missing = pick
		}
	}
	fillAllBut(dst, n, missing)
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (g *RovingMissing) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := g.r.Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	fillAllBut(dst, n, (t/g.period)%n)
}

// fillAllBut sets dst to every edge of [0, n) except missing (-1 keeps
// them all).
func fillAllBut(dst *ring.EdgeSet, n, missing int) {
	for wi := 0; wi < dst.Words(); wi++ {
		dst.SetWord(wi, ^uint64(0)) // SetWord masks the tail
	}
	if missing >= 0 {
		dst.Remove(missing)
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (p *Periodic) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := p.r.Edges()
	ensureEdges(dst, n)
	dst.Clear()
	if t < 0 {
		return
	}
	for e := 0; e < n; e++ {
		pat := p.patterns[e]
		if pat[t%len(pat)] {
			dst.Add(e)
		}
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph: the base set plus the
// forced recurrent edges of this instant.
func (g *BoundedRecurrence) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := g.base.Ring().Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	dyngraph.EdgesInto(g.base, t, dst)
	for wi := 0; wi < dst.Words(); wi++ {
		base, span := wordSpan(wi, n)
		w := dst.Word(wi)
		for i := 0; i < span; i++ {
			if w&(1<<uint(i)) != 0 {
				continue
			}
			e := base + i
			if t%g.delta == prng.UintnAt(g.seed, 0xFA5E, uint64(e), g.delta) {
				w |= 1 << uint(i)
			}
		}
		dst.SetWord(wi, w)
	}
}

// EdgesAtInto implements dyngraph.InPlaceGraph: the base set minus the
// permanent cut.
func (c *Chain) EdgesAtInto(t int, dst *ring.EdgeSet) {
	n := c.base.Ring().Edges()
	ensureEdges(dst, n)
	if t < 0 {
		dst.Clear()
		return
	}
	dyngraph.EdgesInto(c.base, t, dst)
	dst.Remove(c.missing)
}

// verify interface compliance at compile time.
var (
	_ dyngraph.InPlaceGraph = (*Bernoulli)(nil)
	_ dyngraph.InPlaceGraph = (*TInterval)(nil)
	_ dyngraph.InPlaceGraph = (*RovingMissing)(nil)
	_ dyngraph.InPlaceGraph = (*Periodic)(nil)
	_ dyngraph.InPlaceGraph = (*BoundedRecurrence)(nil)
	_ dyngraph.InPlaceGraph = (*Chain)(nil)
	_ dyngraph.InPlaceGraph = (*MarkovStream)(nil)
)
