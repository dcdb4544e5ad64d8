package fsync

import (
	"fmt"
	"testing"

	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/ring"
	"pef/internal/robot"
)

// benchSim builds the canonical Step benchmark workload: k keep-direction
// robots spread evenly over dyn's ring (the hot path of every sweep and
// campaign, without dynamics-generation noise).
func benchSim(b *testing.B, dyn Dynamics, k int) *Simulator {
	b.Helper()
	n := dyn.Ring().Size()
	sim, err := New(Config{
		Algorithm:  robot.NewTable("bench-keep", func(bool, robot.View) (bool, bool) { return false, false }),
		Dynamics:   dyn,
		Placements: EvenPlacements(n, k),
	})
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// composed builds a two-member composition, as the registry's compose:*
// families do.
func composed(mode string, second func(n int, seed uint64) dyngraph.EvolvingGraph) func(int, uint64) dyngraph.EvolvingGraph {
	return func(n int, seed uint64) dyngraph.EvolvingGraph {
		c, err := dynamics.NewComposed(mode, dynamics.NewBernoulli(n, 0.5, seed), second(n, seed))
		if err != nil {
			panic(err)
		}
		return c
	}
}

// kernelFamilies are the oblivious families whose E_t kernels
// BenchmarkStep times on their own, each built for one (n, seed).
var kernelFamilies = []struct {
	name  string
	build func(n int, seed uint64) dyngraph.EvolvingGraph
}{
	{"static", dynamics.StaticSpec().Build},
	{"bernoulli", dynamics.BernoulliSpec(0.5).Build},
	{"bounded", dynamics.BoundedBernoulliSpec(0.3, 5).Build},
	{"t-interval", dynamics.TIntervalSpec(3).Build},
	{"roving", dynamics.RovingSpec(4).Build},
	{"chain", dynamics.ChainSpec(1, 0.5, 4).Build},
	{"eventual-missing", dynamics.EventualMissingSpec(2, 50, 0.5, 4).Build},
	{"periodic", dynamics.TimetableSpec(6).Build},
	{"markov", func(n int, seed uint64) dyngraph.EvolvingGraph {
		m, err := dynamics.NewMarkovStream(n, 0.4, 0.25, seed)
		if err != nil {
			panic(err)
		}
		return m
	}},
	{"compose-union", composed(dynamics.ComposeUnion, dynamics.RovingSpec(2).Build)},
	{"compose-intersect", composed(dynamics.ComposeIntersect, dynamics.TIntervalSpec(3).Build)},
	{"compose-interleave", composed(dynamics.ComposeInterleave, dynamics.RovingSpec(2).Build)},
}

// BenchmarkStep measures one synchronous round in steady state on a
// static ring ("round") and under the adaptive pointed-edge adversary
// ("round/adaptive"); their allocs/op is the quantity the zero-allocation
// round engine drives to zero. It also times the E_t materialization a
// round starts with, per family: one scalar EdgesInto ("edges") and one
// 64-lane LaneColumns instant ("lanes").
func BenchmarkStep(b *testing.B) {
	for _, c := range []struct {
		name string
		dyn  Dynamics
	}{
		{"round", Oblivious{G: dyngraph.NewStatic(16)}},
		{"round/adaptive", pointedEdge{r: ring.New(16), seed: 7}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sim := benchSim(b, c.dyn, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
	for _, f := range kernelFamilies {
		for _, n := range []int{8, 130} {
			b.Run(fmt.Sprintf("edges/%s/n=%d", f.name, n), func(b *testing.B) {
				g := f.build(n, 7)
				var dst ring.EdgeSet
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dyngraph.EdgesInto(g, i, &dst)
				}
			})
		}
		b.Run(fmt.Sprintf("lanes/%s/n=8", f.name), func(b *testing.B) {
			graphs := make([]dyngraph.EvolvingGraph, 64)
			for l := range graphs {
				graphs[l] = f.build(8, uint64(l+1))
			}
			sets := make([]ring.EdgeSet, len(graphs))
			cols := make([]uint64, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dyngraph.LaneColumns(graphs, sets, ^uint64(0), i, cols)
			}
		})
	}
}
