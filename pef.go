// Package pef is the public API of this repository: a faithful, executable
// reproduction of
//
//	Marjorie Bournat, Swan Dubois, Franck Petit.
//	"Computability of Perpetual Exploration in Highly Dynamic Rings."
//	ICDCS 2017 (arXiv:1612.05767).
//
// The paper characterizes exactly how many fully synchronous, anonymous,
// silent robots are necessary and sufficient to visit every node of a
// connected-over-time ring infinitely often. This package exposes:
//
//   - the paper's three algorithms (PEF_3+, PEF_2, PEF_1),
//   - the evolving-ring simulator and a library of dynamics,
//   - the impossibility adversaries of Theorems 4.1 and 5.1 as runnable
//     adaptive dynamics,
//   - one-call exploration and confinement runs with verdict reports,
//   - the experiment harness regenerating every table and figure of the
//     paper (run it with `pef experiments`; BENCH_0005.json records a
//     32-seed sweep),
//   - the scenario subsystem: declarative scenario specs, seeded random
//     generators over the full parameter space, and a property oracle
//     checking the paper's predicates over sharded campaigns of generated
//     scenarios (see SCENARIOS.md),
//   - the extension registry: RegisterAlgorithm, RegisterFamily and
//     RegisterProperty make user-supplied algorithms, dynamics families
//     (including ComposeFamilies combinations and PeriodicTimetable
//     schedules) and oracle predicates first-class citizens of the same
//     campaigns (see SCENARIOS.md "Extension registry" and
//     examples/customfamily).
//
// Quick start — the unified, context-aware entry point runs a declarative
// scenario and checks the paper's prediction for it:
//
//	verdict, err := pef.Run(ctx, pef.Scenario{
//		Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: "random",
//		Family: "eventual-missing", Params: pef.ScenarioParams{Edge: 2, From: 32, P: 0.7, Delta: 4},
//		Horizon: 1600, Seed: 42,
//	})
//	// verdict.OK, verdict.Covered, verdict.MaxGap: perpetual exploration.
//
// Imperative configurations ride the same path through options
// (WithDynamics, WithAlgorithm, WithPlacements, WithObservers, WithTrace);
// Explore wraps it for a Dynamics value and returns the full
// ExplorationReport, and ConfineOneRobotWithDiagram and
// ConfineTwoRobotsWithDiagram run the theorem adversaries of the
// confine-one and confine-two families with a space-time diagram. Campaigns
// stream verdicts with bounded memory via StreamCampaign, checkpoint and
// resume via CampaignConfig.Resume, and shrink any violation to a minimal
// reproducer with Minimize.
package pef

import (
	"context"
	"fmt"
	"sort"

	"pef/internal/adversary"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/scenario"
	"pef/internal/spec"
)

// Algorithm is a uniform deterministic robot algorithm.
type Algorithm = robot.Algorithm

// Chirality fixes how a robot maps its local left/right onto the ring.
type Chirality = robot.Chirality

// Chirality values.
const (
	RightIsCW  = robot.RightIsCW
	RightIsCCW = robot.RightIsCCW
)

// Dynamics decides which edges are present each round (possibly adaptively,
// reacting to robot positions).
type Dynamics = fsync.Dynamics

// Placement is one robot's initial node and chirality.
type Placement = fsync.Placement

// ExplorationReport is the finite-horizon perpetual-exploration verdict.
type ExplorationReport = spec.ExplorationReport

// PEF3Plus returns Algorithm 1 of the paper: perpetual exploration with
// k >= 3 robots on any connected-over-time ring of size n > k.
func PEF3Plus() Algorithm { return core.PEF3Plus }

// PEF2 returns the Section 4.2 algorithm: 2 robots on the 3-node ring.
func PEF2() Algorithm { return core.PEF2 }

// PEF1 returns the Section 5.2 algorithm: 1 robot on the 2-node ring.
func PEF1() Algorithm { return core.PEF1 }

// ExploreConfig parameterizes a one-call exploration run.
type ExploreConfig struct {
	// Nodes is the ring size n (>= 2).
	Nodes int
	// Robots is the team size k (< n). Ignored when Placements is set.
	Robots int
	// Algorithm is the uniform algorithm; required.
	Algorithm Algorithm
	// Dynamics supplies the evolving ring; required (see Static,
	// Bernoulli, EventualMissing, TInterval, Chain, Roving, BlockPointed).
	Dynamics Dynamics
	// Horizon is the number of synchronous rounds to execute.
	Horizon int
	// Seed drives the pseudo-random initial placement.
	Seed uint64
	// Placements optionally fixes the initial configuration explicitly.
	Placements []Placement
}

// explorePlacements validates an ExploreConfig and realizes its initial
// configuration, shared by Explore and ExploreWithDiagram.
func explorePlacements(cfg ExploreConfig) ([]Placement, int, error) {
	if cfg.Algorithm == nil || cfg.Dynamics == nil {
		return nil, 0, fmt.Errorf("pef: ExploreConfig requires Algorithm and Dynamics")
	}
	n := cfg.Dynamics.Ring().Size()
	if cfg.Nodes != 0 && cfg.Nodes != n {
		return nil, 0, fmt.Errorf("pef: Nodes=%d disagrees with dynamics ring size %d", cfg.Nodes, n)
	}
	if cfg.Horizon < 1 {
		// A zero-round "run" used to be accepted silently and report
		// Covered=0; the unified path rejects it loudly instead.
		return nil, 0, fmt.Errorf("pef: Horizon must be >= 1, got %d (a non-positive horizon executes no rounds)", cfg.Horizon)
	}
	placements := cfg.Placements
	if placements == nil {
		if cfg.Robots <= 0 || cfg.Robots >= n {
			return nil, 0, fmt.Errorf("pef: need 0 < Robots < Nodes, got k=%d n=%d", cfg.Robots, n)
		}
		placements = fsync.RandomPlacements(n, cfg.Robots, prng.NewSource(cfg.Seed))
	}
	return placements, n, nil
}

// Explore runs a fully synchronous execution under ctx and reports
// coverage, cover time and the maximum revisit gap — the empirical
// signature of perpetual exploration. On cancellation it returns the
// partial report over the rounds that executed together with ctx's error.
//
// Explore runs through Run with WithDynamics, WithAlgorithm and
// WithPlacements; use Run directly for a verdict instead of a report.
func Explore(ctx context.Context, cfg ExploreConfig) (ExplorationReport, error) {
	placements, n, err := explorePlacements(cfg)
	if err != nil {
		return ExplorationReport{}, err
	}
	vt := spec.NewVisitTracker(n)
	_, err = Run(ctx, Scenario{
		Version:   scenario.Version,
		Ring:      n,
		Robots:    len(placements),
		Algorithm: cfg.Algorithm.Name(),
		Family:    "external",
		Horizon:   cfg.Horizon,
		Seed:      cfg.Seed,
		Expect:    scenario.ExpectNone,
	},
		WithAlgorithm(cfg.Algorithm),
		WithDynamics(cfg.Dynamics),
		WithPlacements(placements...),
		WithObservers(vt),
	)
	if err != nil {
		return vt.Report(), fmt.Errorf("pef: %w", err)
	}
	return vt.Report(), nil
}

// Static returns the dynamics in which every edge is always present.
func Static(n int) Dynamics {
	return fsync.Oblivious{G: dyngraph.NewStatic(n)}
}

// Bernoulli returns the dynamics in which each edge is independently
// present with probability p each round.
func Bernoulli(n int, p float64, seed uint64) Dynamics {
	return fsync.Oblivious{G: dynamics.NewBernoulli(n, p, seed)}
}

// EventualMissing returns a dynamics whose given edge disappears forever at
// time from, the rest staying recurrent — the paper's canonical hard case.
func EventualMissing(n, edge, from int, seed uint64) Dynamics {
	base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0x51DE)
	return fsync.Oblivious{G: dyngraph.NewEventualMissing(base, edge, from)}
}

// TInterval returns a T-interval-connected dynamics: connected snapshots,
// missing edge stable per window of t rounds.
func TInterval(n, t int, seed uint64) Dynamics {
	return fsync.Oblivious{G: dynamics.NewTInterval(n, t, seed)}
}

// Chain returns a connected-over-time chain: the ring with edge cut missing
// forever, the rest recurrent.
func Chain(n, cut int, seed uint64) Dynamics {
	base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0xC4A1)
	return fsync.Oblivious{G: dynamics.NewChain(base, cut)}
}

// Roving returns the roving-missing-edge dynamics: exactly one edge absent
// at each instant, rotating every period rounds.
func Roving(n, period int) Dynamics {
	return fsync.Oblivious{G: dynamics.NewRovingMissing(n, period)}
}

// BlockPointed returns the budgeted stress adversary: every edge a robot
// points to is removed, but no edge stays absent more than budget
// consecutive rounds.
func BlockPointed(n, budget int) Dynamics {
	return adversary.NewBlockPointed(n, budget)
}

// Algorithms returns the algorithm names registered in the default
// registry, sorted.
func Algorithms() []string {
	names := scenario.DefaultRegistry().AlgorithmNames()
	sort.Strings(names)
	return names
}

// NewAlgorithm instantiates an algorithm registered in the default
// registry by name.
func NewAlgorithm(name string) (Algorithm, error) {
	return scenario.DefaultRegistry().Algorithm(name)
}

// Scenario is a declarative scenario specification: ring size, team,
// algorithm, placement policy, dynamics family with parameters, horizon
// and seed, with a deterministic JSON encoding (Encode/DecodeScenario) and
// a canonical string ID. Running the same Scenario always replays the same
// execution bit for bit.
type Scenario = scenario.Spec

// ScenarioParams is the dynamics parameter bag of a Scenario.
type ScenarioParams = scenario.Params

// ScenarioVerdict is the property oracle's structured outcome for one
// scenario: the enforced expectation, the observed outcome, scalar metrics
// (cover time, max revisit gap, distinct nodes visited), and a violation
// message when the paper's predicate failed.
type ScenarioVerdict = scenario.Verdict

// GenConfig bounds the scenario generators' sampled parameter space.
type GenConfig = scenario.GenConfig

// CampaignConfig parameterizes a generated-scenario sweep, and Campaign is
// its completed result; see RunCampaign.
type (
	CampaignConfig = scenario.CampaignConfig
	Campaign       = scenario.Campaign
)

// DecodeScenario parses and validates a deterministic-JSON scenario.
func DecodeScenario(data []byte) (Scenario, error) { return scenario.DecodeSpec(data) }

// ScenarioGenerators lists the registered scenario generator families
// ("uniform", "boundary", "markov", "adversarial", "registered").
func ScenarioGenerators() []string {
	gens := scenario.Generators()
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name
	}
	return names
}

// GenerateScenarios draws count scenario specs from the named generator
// family under one seed. Equal arguments always return identical specs,
// and a longer stream extends a shorter one.
func GenerateScenarios(family string, cfg GenConfig, seed uint64, count int) ([]Scenario, error) {
	return scenario.Generate(family, cfg, seed, count)
}

// RunCampaign generates Count scenarios per seed from the configured
// generator and shards them across a worker pool, checking every one
// against the property oracle. Campaign reports (WriteReport, WriteJSON)
// are byte-identical for any worker count.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*Campaign, error) {
	return scenario.RunCampaign(ctx, cfg)
}
