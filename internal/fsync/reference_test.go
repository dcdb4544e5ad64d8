package fsync

import (
	"reflect"
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
)

// refRobot and refSim are the copy/fill round engine Step replaced: every
// robot keeps its own node, global direction and moved flag, and both
// snapshots are refilled from the robots each round. The engine must
// reproduce it event for event.
type refRobot struct {
	core  robot.Core
	chir  robot.Chirality
	dir   ring.Direction
	node  int
	moved bool
}

type refSim struct {
	r       ring.Ring
	dyn     Dynamics
	robots  []refRobot
	t       int
	before  Snapshot
	after   Snapshot
	edges   ring.EdgeSet
	moved   []bool
	flipped []bool
	occ     []int
}

func newRefSim(cfg Config) *refSim {
	r := cfg.Dynamics.Ring()
	s := &refSim{r: r, dyn: cfg.Dynamics, edges: ring.NewEdgeSet(r.Edges()), occ: make([]int, r.Size())}
	for _, p := range cfg.Placements {
		c := p.Core
		if c == nil {
			c = cfg.Algorithm.NewCore()
		}
		s.robots = append(s.robots, refRobot{core: c, chir: p.Chirality, dir: globalDir(p.Chirality, c.Dir()), node: p.Node})
	}
	s.moved = make([]bool, len(s.robots))
	s.flipped = make([]bool, len(s.robots))
	s.fill(&s.after)
	return s
}

func (s *refSim) fill(snap *Snapshot) {
	snap.T = s.t
	snap.resize(len(s.robots))
	for i, rb := range s.robots {
		snap.Positions[i] = rb.node
		snap.GlobalDirs[i] = rb.dir
		snap.States[i] = rb.core.State()
		snap.MovedPrev[i] = rb.moved
	}
}

func (s *refSim) step() RoundEvent {
	s.fill(&s.before)
	s.dyn.EdgesAtInto(s.t, &s.before, &s.edges)
	for _, rb := range s.robots {
		s.occ[rb.node]++
	}
	views := make([]robot.View, len(s.robots))
	for i, rb := range s.robots {
		views[i] = robot.View{
			EdgeDir:     s.edges.Contains(s.r.EdgeTowards(rb.node, rb.dir)),
			EdgeOpp:     s.edges.Contains(s.r.EdgeTowards(rb.node, rb.dir.Opposite())),
			OtherRobots: s.occ[rb.node] > 1,
		}
	}
	for _, rb := range s.robots {
		s.occ[rb.node] = 0
	}
	for i := range s.robots {
		rb := &s.robots[i]
		rb.core.Compute(views[i])
		g := globalDir(rb.chir, rb.core.Dir())
		s.flipped[i] = g != rb.dir
		rb.dir = g
	}
	for i := range s.robots {
		rb := &s.robots[i]
		s.moved[i] = false
		if s.edges.Contains(s.r.EdgeTowards(rb.node, rb.dir)) {
			rb.node = s.r.Next(rb.node, rb.dir)
			s.moved[i] = true
		}
		rb.moved = s.moved[i]
	}
	s.t++
	s.fill(&s.after)
	return RoundEvent{T: s.before.T, Edges: s.edges, Before: &s.before, After: &s.after, Moved: s.moved, Flipped: s.flipped}
}

// pointedEdge is an adaptive adversary in the style of Theorems 4.1/5.1:
// each round it removes the edge one robot (round-robin) points to in the
// snapshot it is handed, plus a hashed sprinkle of other edges.
type pointedEdge struct {
	r    ring.Ring
	seed uint64
}

func (p pointedEdge) Ring() ring.Ring { return p.r }

func (p pointedEdge) EdgesAtInto(t int, snap *Snapshot, dst *ring.EdgeSet) {
	dst.Fill()
	i := t % len(snap.Positions)
	dst.Remove(p.r.EdgeTowards(snap.Positions[i], snap.GlobalDirs[i]))
	for e := 0; e < p.r.Edges(); e++ {
		if prng.BoolAt(p.seed, uint64(e), uint64(t), 0.2) {
			dst.Remove(e)
		}
	}
}

// TestStepMatchesReferenceRound runs the engine beside refSim on random
// oblivious dynamics, on an adaptive pointed-edge adversary, and from
// towered starts with pre-advanced cores, comparing every RoundEvent
// field, both snapshots and Snapshot() each round.
func TestStepMatchesReferenceRound(t *testing.T) {
	algs := []robot.Algorithm{core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, baseline.LCGWalker{Seed: 5}}
	src := prng.NewSource(0x5EED)
	for trial := 0; trial < 60; trial++ {
		n := 2 + src.Intn(30)
		k := 1 + src.Intn(n-1)
		alg := algs[trial%len(algs)]
		seed := src.Uint64()
		mode := trial % 3
		// build returns a fresh config each call, so the two engines never
		// share a core.
		build := func() Config {
			ps := RandomPlacements(n, k, prng.NewSource(seed))
			cfg := Config{Algorithm: alg, Placements: ps, Dynamics: Oblivious{G: dynamics.NewBernoulli(n, 0.6, seed)}}
			switch mode {
			case 1:
				cfg.Dynamics = pointedEdge{r: ring.New(n), seed: seed}
			case 2:
				// Towered start from cores advanced off the initial state.
				cfg.AllowTowers = true
				cs := prng.NewSource(seed)
				for i := range ps {
					ps[i].Node = cs.Intn(n)
					ps[i].Core = alg.NewCore()
					for j := cs.Intn(4); j > 0; j-- {
						ps[i].Core.Compute(robot.View{EdgeDir: cs.Bool(0.5), EdgeOpp: cs.Bool(0.5), OtherRobots: cs.Bool(0.5)})
					}
				}
			}
			return cfg
		}
		sim, err := New(build())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := newRefSim(build())
		for r := 0; r < 3*n; r++ {
			ev, want := sim.Step(), ref.step()
			if ev.T != want.T || !ev.Edges.Equal(want.Edges) ||
				!reflect.DeepEqual(*ev.Before, *want.Before) || !reflect.DeepEqual(*ev.After, *want.After) ||
				!reflect.DeepEqual(ev.Moved, want.Moved) || !reflect.DeepEqual(ev.Flipped, want.Flipped) {
				t.Fatalf("trial %d (n=%d k=%d %s mode %d) round %d:\n got %+v\n     %+v -> %+v\nwant %+v\n     %+v -> %+v",
					trial, n, k, alg.Name(), mode, r, *ev, *ev.Before, *ev.After, want, *want.Before, *want.After)
			}
			if got := sim.Snapshot(); !reflect.DeepEqual(got, *want.After) {
				t.Fatalf("trial %d round %d: Snapshot() = %+v, want %+v", trial, r, got, *want.After)
			}
		}
	}
}
