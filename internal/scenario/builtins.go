package scenario

import (
	"fmt"
	"math"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/robot"
)

// registerBuiltins is the registry bootstrap: it installs the paper's
// algorithms and baselines, the stock dynamics families, the combinator
// families (periodic timetables, adversary compositions), and the oracle
// properties. Registration order is load-bearing — it fixes the canonical
// enumeration order of every listing and sampler pool, and hence the
// byte-identity of recorded campaign streams — so entries here must only
// ever be appended.
//
// This function is the single place where built-in names are bound to
// behaviour; everywhere else resolves through the registry.
func registerBuiltins(r *Registry) {
	mustAlg := func(name, desc string, alg robot.Algorithm) {
		if err := r.RegisterAlgorithm(name, AlgorithmDescriptor{
			Description: desc,
			Stock:       true, // frozen victim pool: only the bootstrap sets this
			New:         func() robot.Algorithm { return alg },
		}); err != nil {
			panic(err)
		}
	}
	// The paper's algorithms and their ablations, then the baseline suite
	// (the empirical stand-in for the impossibility theorems' universal
	// quantifier), in the historical victim-pool order.
	mustAlg(core.PEF3PlusName, "Algorithm 1: k >= 3 robots explore any connected-over-time ring n > k", core.PEF3Plus)
	mustAlg(core.PEF2Name, "Section 4.2: two robots on the 3-node ring", core.PEF2)
	mustAlg(core.PEF1Name, "Section 5.2: one robot on the 2-node ring", core.PEF1)
	mustAlg(core.NoRule2Name, "PEF_3+ ablation without Rule 2 (tower breaking)", core.NoRule2)
	mustAlg(core.NoRule3Name, "PEF_3+ ablation without Rule 3 (sentinel turnaround)", core.NoRule3)
	for _, alg := range baseline.Suite() {
		mustAlg(alg.Name(), "baseline candidate from the impossibility victim suite", alg)
	}

	mustFam := func(name string, d FamilyDescriptor) {
		if err := r.RegisterFamily(name, d); err != nil {
			panic(err)
		}
	}

	// Stock oblivious connected-over-time families, in the historical
	// sampler-pool order. Each Graph closure calls the family's dedicated
	// constructor; each Sample closure replays the historical parameter
	// draws exactly.
	mustFam("static", FamilyDescriptor{
		Description: "every edge always present",
		Stock:       true,
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dyngraph.NewStatic(s.Ring), nil
		},
	})
	mustFam("bernoulli", FamilyDescriptor{
		Description: "each edge independently present with probability p each round",
		Params:      []ParamField{{Name: "p", Kind: ParamFloat, Min: 0, Max: 1, Doc: "per-edge presence probability"}},
		Stock:       true,
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.NewBernoulli(s.Ring, s.Params.P, s.Seed), nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			return Params{P: probIn(src, 0.3, 0.95)}
		},
	})
	mustFam("bounded", FamilyDescriptor{
		Description: "Bernoulli(p) forced recurrent with bound delta",
		Params: []ParamField{
			{Name: "p", Kind: ParamFloat, Min: 0, Max: 1, Doc: "background presence probability"},
			{Name: "delta", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "forced recurrence bound"},
		},
		Stock:      true,
		Explorable: true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.BoundedBernoulliSpec(s.Params.P, s.Params.Delta).Build(s.Ring, s.Seed), nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			p := probIn(src, 0.05, 0.5)
			return Params{P: p, Delta: intIn(src, 1, 8)}
		},
	})
	mustFam("t-interval", FamilyDescriptor{
		Description: "T-interval-connected: stable spanning subgraph per window of t rounds",
		Params:      []ParamField{{Name: "t", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "interval-connectivity window"}},
		Stock:       true,
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.NewTInterval(s.Ring, s.Params.T, s.Seed), nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			return Params{T: intIn(src, 1, 8)}
		},
	})
	mustFam("roving", FamilyDescriptor{
		Description: "exactly one edge absent at each instant, rotating every period rounds",
		Params:      []ParamField{{Name: "period", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "rotation period"}},
		Stock:       true,
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.NewRovingMissing(s.Ring, s.Params.Period), nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			return Params{Period: intIn(src, 1, 6)}
		},
	})
	mustFam("chain", FamilyDescriptor{
		Description: "connected-over-time chain: edge cut missing forever, the rest recurrent",
		Params: []ParamField{
			{Name: "cut", Kind: ParamInt, Min: 0, Max: math.Inf(1), Doc: "permanently missing edge"},
			{Name: "p", Kind: ParamFloat, Min: 0, Max: 1, Doc: "background keep probability"},
			{Name: "delta", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "forced recurrence bound"},
		},
		Stock:      true,
		Explorable: true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.ChainSpec(s.Params.Cut, s.Params.P, s.Params.Delta).Build(s.Ring, s.Seed), nil
		},
		Sample: func(src *prng.Source, n, _ int) Params {
			cut := intIn(src, 0, n-1)
			p := probIn(src, 0.5, 0.9)
			return Params{Cut: cut, P: p, Delta: intIn(src, 2, 6)}
		},
	})
	mustFam("eventual-missing", FamilyDescriptor{
		Description: "one edge disappears forever at time from, the rest stay recurrent",
		Params: []ParamField{
			{Name: "edge", Kind: ParamInt, Min: 0, Max: math.Inf(1), Doc: "the eventually missing edge"},
			{Name: "from", Kind: ParamInt, Min: 0, Max: math.Inf(1), Doc: "instant the edge disappears"},
			{Name: "p", Kind: ParamFloat, Min: 0, Max: 1, Doc: "background keep probability"},
			{Name: "delta", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "forced recurrence bound"},
		},
		Stock:      true,
		Explorable: true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.EventualMissingSpec(s.Params.Edge, s.Params.From, s.Params.P, s.Params.Delta).Build(s.Ring, s.Seed), nil
		},
		Sample: func(src *prng.Source, n, horizon int) Params {
			edge := intIn(src, 0, n-1)
			from := intIn(src, 0, horizon/4)
			p := probIn(src, 0.5, 0.9)
			return Params{Edge: edge, From: from, P: p, Delta: intIn(src, 2, 6)}
		},
	})
	mustFam("markov", FamilyDescriptor{
		Description: "bursty links: per-edge two-state Markov chain (up: absent->present, down: present->absent)",
		Params: []ParamField{
			{Name: "up", Kind: ParamFloat, Min: 0, Max: 1, Required: true, Doc: "absent->present transition probability"},
			{Name: "down", Kind: ParamFloat, Min: 0, Max: 1, Doc: "present->absent transition probability"},
		},
		Stock:      true,
		Explorable: true,
		Build: func(s Spec) (fsync.Dynamics, error) {
			// The materialized GenerateMarkov trace would retain O(horizon)
			// edge sets; the streaming chain is bit-identical and holds only
			// the current one, which is what lets campaigns scale to very
			// long horizons.
			g, err := dynamics.NewMarkovStream(s.Ring, s.Params.Up, s.Params.Down, s.Seed)
			if err != nil {
				return nil, err
			}
			return fsync.Oblivious{G: g}, nil
		},
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			// Composable form: the same chain, rematerialized per member.
			g, err := dynamics.GenerateMarkov(s.Ring, s.Params.Up, s.Params.Down, s.Seed, s.Horizon)
			if err != nil {
				return nil, err
			}
			return g, nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			up := probIn(src, 0.2, 0.8)
			return Params{Up: up, Down: probIn(src, 0.05, 0.6)}
		},
	})

	// Adaptive adversaries. block-pointed closes the stock pool (the
	// historical uniform pool is the eight families above plus this one);
	// the confinement theorems follow with their proof-pinned placements
	// and declared expectations.
	mustFam(FamilyBlockPointed, FamilyDescriptor{
		Description: "budgeted stress adversary: every pointed edge removed, none absent beyond budget rounds",
		Params:      []ParamField{{Name: "budget", Kind: ParamInt, Min: 1, Max: math.Inf(1), Required: true, Doc: "max consecutive rounds an edge stays absent"}},
		Stock:       true,
		Explorable:  true,
		Build: func(s Spec) (fsync.Dynamics, error) {
			return adversary.NewBlockPointed(s.Ring, s.Params.Budget), nil
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			return Params{Budget: intIn(src, 1, 4)}
		},
	})
	mustFam(FamilyConfineOne, FamilyDescriptor{
		Description:  "Theorem 5.1 adversary: confines any single robot to two nodes",
		Expect:       ExpectConfine,
		ConfineLimit: 2,
		Validate: func(s Spec) error {
			if s.Robots != 1 || s.Ring < 3 {
				return fmt.Errorf("scenario: %s needs k=1 and n>=3, got k=%d n=%d", s.Family, s.Robots, s.Ring)
			}
			return nil
		},
		Build: func(s Spec) (fsync.Dynamics, error) {
			return adversary.NewOneRobotConfinement(s.Ring, 0, 0), nil
		},
		Placements: func(Spec) []fsync.Placement {
			return []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}}
		},
	})
	mustFam(FamilyConfineTwo, FamilyDescriptor{
		Description:  "Theorem 4.1 adversary: confines any two robots to three nodes",
		Expect:       ExpectConfine,
		ConfineLimit: 3,
		Validate: func(s Spec) error {
			if s.Robots != 2 || s.Ring < 4 {
				return fmt.Errorf("scenario: %s needs k=2 and n>=4, got k=%d n=%d", s.Family, s.Robots, s.Ring)
			}
			return nil
		},
		Build: func(s Spec) (fsync.Dynamics, error) {
			return adversary.NewTwoRobotConfinement(s.Ring, 0, 0, 1), nil
		},
		Placements: func(Spec) []fsync.Placement {
			return []fsync.Placement{
				{Node: 0, Chirality: robot.RightIsCW},
				{Node: 1, Chirality: robot.RightIsCCW},
			}
		},
	})

	// Combinator families: the ROADMAP's open "periodic timetables" and
	// "adversary compositions" workloads. Not Stock — the historical pools
	// stay frozen — but Explorable, so the "registered" generator sweeps
	// them alongside everything registered later.
	mustFam("periodic", FamilyDescriptor{
		Description: "seeded periodic timetable: per-edge appearance pattern with one guaranteed slot per period",
		Params:      []ParamField{{Name: "period", Kind: ParamInt, Min: 1, Max: 64, Required: true, Doc: "timetable period"}},
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return dynamics.NewTimetable(s.Ring, s.Params.Period, s.Seed)
		},
		Sample: func(src *prng.Source, _, _ int) Params {
			return Params{Period: intIn(src, 2, 8)}
		},
		Horizon: func(n int, p Params) int {
			// A pattern guarantees one appearance per period, so the
			// timetable behaves like a recurrence bound of Period: scale
			// the horizon exactly like the bounded family does for Delta.
			return exploreHorizon(n, Params{Delta: p.Period})
		},
	})
	mustCompose := func(name, mode string, members ...string) {
		d, err := r.ComposeFamilies(mode, members...)
		if err != nil {
			panic(err)
		}
		mustFam(name, d)
	}
	mustCompose("compose:union", dynamics.ComposeUnion, "bernoulli", "roving")
	mustCompose("compose:intersect", dynamics.ComposeIntersect, "bernoulli", "t-interval")
	mustCompose("compose:interleave", dynamics.ComposeInterleave, "bernoulli", "roving")

	// Oracle properties: the enforceable values of Spec.Expect.
	mustProp := func(name string, p Property) {
		if err := r.RegisterProperty(name, p); err != nil {
			panic(err)
		}
	}
	mustProp(ExpectExplore, Property{
		Description: "the run covers the ring and keeps revisiting every node (perpetual exploration)",
		Check: func(in PropertyInput) PropertyResult {
			return PropertyResult{OK: in.ExploreViolation == "", Violation: in.ExploreViolation}
		},
	})
	mustProp(ExpectConfine, Property{
		Description: "the robots stay inside the theorem's distinct-node bound",
		Check: func(in PropertyInput) PropertyResult {
			limit := in.ConfineLimit
			if limit == 0 {
				limit = 3 // generic two-robot bound when the family declares none
			}
			if in.Distinct <= limit {
				return PropertyResult{OK: true, Outcome: "confined"}
			}
			return PropertyResult{
				Outcome:   "escaped",
				Violation: fmt.Sprintf("visited %d distinct nodes, theorem bound is %d", in.Distinct, limit),
			}
		},
	})
	mustProp(ExpectNone, Property{
		Description: "no claim enforced: the oracle only reports metrics",
		Check: func(PropertyInput) PropertyResult {
			return PropertyResult{OK: true}
		},
	})
}
