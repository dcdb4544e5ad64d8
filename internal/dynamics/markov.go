package dynamics

import (
	"fmt"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// GenerateMarkov materializes a bursty-link evolving ring: each edge is an
// independent two-state Markov chain (present/absent) with transition
// probabilities up (absent→present) and down (present→absent). Unlike the
// memoryless Bernoulli dynamics, absences come in runs — the realistic
// model for doors, road works, or flaky radio links. Chains are sequential
// by nature, so the generator returns a pre-materialized Recorded trace of
// the given horizon (random-access, serializable, replayable like any
// other recorded schedule): the MarkovStream chain, recorded.
//
// All edges start present. With up > 0 every edge is recurrent in
// expectation with mean absence run 1/up, so the trace is
// connected-over-time with overwhelming probability on the horizons the
// experiments use (tests verify it).
func GenerateMarkov(n int, up, down float64, seed uint64, horizon int) (*dyngraph.Recorded, error) {
	m, err := NewMarkovStream(n, up, down, seed)
	if err != nil {
		return nil, err
	}
	if horizon < 0 {
		return nil, fmt.Errorf("dynamics: negative horizon %d", horizon)
	}
	return dyngraph.Record(m, horizon), nil
}

// MarkovStream is the lazily generated form of the Markov dynamics: the
// per-edge two-state chain produced forward on demand into one presence
// set, the chain state. A campaign run over a million-round horizon
// therefore holds one edge set instead of O(horizon).
//
// Present and EdgesAtInto read the same set. They may be queried at the
// newest generated instant or any later one (the chain advances as
// needed); reading an instant behind the newest panics. Simulators only
// ever read the current instant. Negative instants have no edges.
type MarkovStream struct {
	r ring.Ring
	// cur is E_{next-1}, the newest generated instant.
	cur  ring.EdgeSet
	next int
	src  prng.Source
	// upThr and downThr are prng.Threshold53 of the transition
	// probabilities.
	upThr, downThr uint64
}

// NewMarkovStream creates a streaming Markov dynamics over an n-node ring.
func NewMarkovStream(n int, up, down float64, seed uint64) (*MarkovStream, error) {
	if up <= 0 || up > 1 || down < 0 || down > 1 {
		return nil, fmt.Errorf("dynamics: Markov probabilities up=%v down=%v outside (0,1]/[0,1]", up, down)
	}
	r := ring.New(n)
	return &MarkovStream{
		r:       r,
		cur:     ring.FullEdgeSet(r.Edges()),
		next:    1,
		src:     *prng.NewSource(seed),
		upThr:   prng.Threshold53(up),
		downThr: prng.Threshold53(down),
	}, nil
}

// step is the chain kernel: it writes into dst the successor of the state
// cur (dst may alias cur). Edges transition in edge order, each drawing one
// 53-bit variate from the sequential source, and an edge flips when its
// draw falls under the threshold of its current state — down when present,
// up when absent. The integer comparison is bit-exact with Source.Bool by
// the argument on prng.Threshold53.
func (m *MarkovStream) step(cur ring.EdgeSet, dst *ring.EdgeSet) {
	src := m.src
	n := m.r.Edges()
	up, flipThr := m.upThr, m.upThr^m.downThr
	for wi := 0; wi < cur.Words(); wi++ {
		// Branch-free, constant shifts only: state bits leave at the bottom
		// of s, flip bits (the borrow of draw-thr, both at most 2^53)
		// enter at the top of flips.
		k, word := min(64, n-64*wi), cur.Word(wi)
		s, flips := word, uint64(0)
		for range k {
			thr := up ^ flipThr&-(s&1)
			s >>= 1
			flips = flips>>1 | (src.Uint64()>>11-thr)&(1<<63)
		}
		dst.SetWord(wi, word^flips>>(64-k))
	}
	m.src = src
}

// at returns E_t for t >= 0, advancing the chain as needed.
func (m *MarkovStream) at(t int) ring.EdgeSet {
	if t < m.next-1 {
		panic(fmt.Sprintf("dynamics: markov instant %d behind the newest instant %d", t, m.next-1))
	}
	for ; m.next <= t; m.next++ {
		m.step(m.cur, &m.cur)
	}
	return m.cur
}

// Ring implements dyngraph.EvolvingGraph.
func (m *MarkovStream) Ring() ring.Ring { return m.r }

// Present implements dyngraph.EvolvingGraph.
func (m *MarkovStream) Present(e, t int) bool {
	if t < 0 {
		return false
	}
	return m.at(t).Contains(e)
}

// EdgesAtInto implements dyngraph.InPlaceGraph.
func (m *MarkovStream) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t >= 0 {
		dst.CopyFrom(m.at(t))
		return
	}
	if dst.Size() != m.r.Edges() {
		*dst = ring.NewEdgeSet(m.r.Edges())
	}
	dst.Clear()
}

// MarkovSpec wraps the Markov chain as a workload Spec. A build streams
// the chain, so it materializes nothing and serves forward reads only;
// random-access readers wrap the built graph in dyngraph.Record. Build
// panics on invalid parameters (they are programmer-chosen constants in
// the suites).
func MarkovSpec(up, down float64) Spec {
	return Spec{
		Name: "markov-" + ftoa(up) + "-" + ftoa(down),
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			g, err := NewMarkovStream(n, up, down, seed)
			if err != nil {
				panic(err)
			}
			return g
		},
	}
}
