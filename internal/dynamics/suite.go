package dynamics

import (
	"strconv"

	"pef/internal/dyngraph"
)

// Spec is a named, seedable dynamics constructor, the unit of the workload
// suites swept by the experiment harness.
type Spec struct {
	// Name identifies the workload in reports (e.g. "bernoulli-0.5").
	Name string
	// Build instantiates the dynamics over an n-node ring with the seed.
	Build func(n int, seed uint64) dyngraph.EvolvingGraph
}

// Static returns the all-edges-always-present workload.
func StaticSpec() Spec {
	return Spec{
		Name: "static",
		Build: func(n int, _ uint64) dyngraph.EvolvingGraph {
			return dyngraph.NewStatic(n)
		},
	}
}

// BernoulliSpec returns the Bernoulli(p) workload.
func BernoulliSpec(p float64) Spec {
	return Spec{
		Name: "bernoulli-" + ftoa(p),
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			return NewBernoulli(n, p, seed)
		},
	}
}

// BoundedBernoulliSpec returns the Bernoulli(p) workload forced recurrent
// with bound delta — the sparse-but-fair stochastic family E-X2 sweeps.
func BoundedBernoulliSpec(p float64, delta int) Spec {
	return Spec{
		Name: "bounded-" + ftoa(p) + "-d" + itoa(delta),
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			base := dyngraph.EvolvingGraph(NewBernoulli(n, p, seed))
			return NewBoundedRecurrence(base, delta, seed^0xB0B0)
		},
	}
}

// EventualMissingSpec returns the workload whose edge `edge mod n` is
// present (under Bernoulli(keepP) noise on the other edges, forced recurrent
// with bound delta) until time from, then absent forever. This is the
// defining hard case for PEF_3+ (sentinels, Lemma 3.7).
func EventualMissingSpec(edge, from int, keepP float64, delta int) Spec {
	return Spec{
		Name: "eventual-missing",
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			base := dyngraph.EvolvingGraph(NewBernoulli(n, keepP, seed))
			base = NewBoundedRecurrence(base, delta, seed^0x51DE)
			return dyngraph.NewEventualMissing(base, edge%n, from)
		},
	}
}

// TIntervalSpec returns the T-interval-connected workload.
func TIntervalSpec(t int) Spec {
	return Spec{
		Name: "t-interval-" + itoa(t),
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			return NewTInterval(n, t, seed)
		},
	}
}

// RovingSpec returns the roving-missing-edge workload.
func RovingSpec(period int) Spec {
	return Spec{
		Name: "roving-" + itoa(period),
		Build: func(n int, _ uint64) dyngraph.EvolvingGraph {
			return NewRovingMissing(n, period)
		},
	}
}

// ChainSpec returns the permanent-chain workload: Bernoulli(keepP) forced
// recurrent on all edges but one, which is absent from time zero.
func ChainSpec(cut int, keepP float64, delta int) Spec {
	return Spec{
		Name: "chain",
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			base := dyngraph.EvolvingGraph(NewBernoulli(n, keepP, seed))
			base = NewBoundedRecurrence(base, delta, seed^0xC0DE)
			return NewChain(base, cut%n)
		},
	}
}

// StandardSuite is the battery of connected-over-time workloads every
// positive (possibility) experiment must pass: stable, stochastic at three
// densities, interval-connected, roving damage, and an eventual missing
// edge. All are connected-over-time on the horizons used by the harness
// (verified by dyngraph.VerifyConnectedOverTime in tests).
func StandardSuite() []Spec {
	return []Spec{
		StaticSpec(),
		BernoulliSpec(0.9),
		BernoulliSpec(0.6),
		BernoulliSpec(0.3),
		TIntervalSpec(4),
		RovingSpec(3),
		MarkovSpec(0.4, 0.25),
		EventualMissingSpec(0, 32, 0.7, 4),
	}
}

// ftoa formats a probability compactly for workload names.
func ftoa(p float64) string {
	return strconv.FormatFloat(p, 'g', 3, 64)
}

func itoa(v int) string { return strconv.Itoa(v) }
