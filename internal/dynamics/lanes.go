package dynamics

import (
	"pef/internal/dyngraph"
	"pef/internal/prng"
)

// This file gives the oblivious families the lane engine's word fast path
// (dyngraph.WordGraph): E_t produced directly as one presence word,
// bit-identical to the EdgesAtInto sets, with the per-instant work reduced
// to what genuinely depends on t. The big win is hash amortization: the
// (seed, stream) prefix of every Hash3 the stochastic families draw is
// constant across instants, so Bernoulli pays one SplitMix64 finalizer per
// edge per round instead of three, and BoundedRecurrence's forced-phase
// draw — which never depended on t at all — collapses into delta
// precomputed masks. lanes_test.go pins word-vs-set identity for every
// family across the parameter space.

// edgeMask returns the full presence word of an n-edge ring (n <= 64).
func edgeMask(n int) uint64 {
	return ^uint64(0) >> uint(64-n)
}

// EdgeWordAt implements dyngraph.WordGraph.
func (b *Bernoulli) EdgeWordAt(t int) (uint64, bool) {
	n := b.r.Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	if b.lanePrefix == nil {
		b.lanePrefix = make([]uint64, n)
		for e := range b.lanePrefix {
			b.lanePrefix[e] = prng.Stream3(b.seed, uint64(e))
		}
		b.laneThr = prng.Threshold53(b.p)
	}
	var w uint64
	ut := uint64(t)
	for e, prefix := range b.lanePrefix {
		if prng.At3(prefix, ut)>>11 < b.laneThr {
			w |= 1 << uint(e)
		}
	}
	return w, true
}

// EdgeWordAt implements dyngraph.WordGraph.
func (g *TInterval) EdgeWordAt(t int) (uint64, bool) {
	n := g.r.Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	w := edgeMask(n)
	window := uint64(t / g.t)
	if window%2 == 0 {
		if pick := prng.UintnAt(g.seed, 0xD15C0, window/2, n+1); pick != n {
			w &^= 1 << uint(pick)
		}
	}
	return w, true
}

// EdgeWordAt implements dyngraph.WordGraph.
func (g *RovingMissing) EdgeWordAt(t int) (uint64, bool) {
	n := g.r.Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	return edgeMask(n) &^ (1 << uint((t/g.period)%n)), true
}

// EdgeWordAt implements dyngraph.WordGraph.
func (p *Periodic) EdgeWordAt(t int) (uint64, bool) {
	n := p.r.Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	var w uint64
	for e, pat := range p.patterns {
		if pat[t%len(pat)] {
			w |= 1 << uint(e)
		}
	}
	return w, true
}

// EdgeWordAt implements dyngraph.WordGraph: the base word, plus the forced
// recurrent edges of this instant's phase.
func (g *BoundedRecurrence) EdgeWordAt(t int) (uint64, bool) {
	wb, ok := g.base.(dyngraph.WordGraph)
	if !ok {
		return 0, false
	}
	n := g.base.Ring().Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	w, ok := wb.EdgeWordAt(t)
	if !ok {
		return 0, false
	}
	if g.forced == nil {
		g.forced = make([]uint64, g.delta)
		for e := 0; e < n; e++ {
			phase := prng.UintnAt(g.seed, 0xFA5E, uint64(e), g.delta)
			g.forced[phase] |= 1 << uint(e)
		}
	}
	return w | g.forced[t%g.delta], true
}

// EdgeWordAt implements dyngraph.WordGraph: the base word, minus the
// permanent cut.
func (c *Chain) EdgeWordAt(t int) (uint64, bool) {
	wb, ok := c.base.(dyngraph.WordGraph)
	if !ok {
		return 0, false
	}
	if t < 0 {
		if c.base.Ring().Edges() > 64 {
			return 0, false
		}
		return 0, true
	}
	w, ok := wb.EdgeWordAt(t)
	if !ok {
		return 0, false
	}
	return w &^ (1 << uint(c.missing)), true
}

// EdgeWordAt implements dyngraph.WordGraph: the members' words folded
// under the composition mode.
func (c *Composed) EdgeWordAt(t int) (uint64, bool) {
	n := c.r.Edges()
	if n > 64 {
		return 0, false
	}
	if t < 0 {
		return 0, true
	}
	if c.mode == ComposeInterleave {
		wm, ok := c.members[t%len(c.members)].(dyngraph.WordGraph)
		if !ok {
			return 0, false
		}
		return wm.EdgeWordAt(t)
	}
	w := edgeMask(n)
	if c.mode == ComposeUnion {
		w = 0
	}
	for _, m := range c.members {
		wm, ok := m.(dyngraph.WordGraph)
		if !ok {
			return 0, false
		}
		mw, ok := wm.EdgeWordAt(t)
		if !ok {
			return 0, false
		}
		if c.mode == ComposeUnion {
			w |= mw
		} else {
			w &= mw
		}
	}
	return w, true
}

// verify interface compliance at compile time.
var (
	_ dyngraph.WordGraph = (*Bernoulli)(nil)
	_ dyngraph.WordGraph = (*TInterval)(nil)
	_ dyngraph.WordGraph = (*RovingMissing)(nil)
	_ dyngraph.WordGraph = (*Periodic)(nil)
	_ dyngraph.WordGraph = (*BoundedRecurrence)(nil)
	_ dyngraph.WordGraph = (*Chain)(nil)
	_ dyngraph.WordGraph = (*Composed)(nil)
	_ dyngraph.WordGraph = (*MarkovStream)(nil)
)
