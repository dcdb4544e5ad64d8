package pef

import (
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/scenario"
)

// Registry is the extension surface of the library: it maps the names a
// declarative Scenario carries — algorithm, dynamics family, oracle
// property (the Expect field) — to their implementations. Every layer
// resolves through a Registry: Scenario validation, the generators, the
// oracle, the minimizer and the pef scenarios CLI listings, so registered
// extensions enter campaigns exactly like the built-ins.
//
// The process default (DefaultRegistry, extended by the package-level
// Register* functions) serves the common case; NewRegistry returns an
// independent registry — preloaded with the built-ins — for embedding
// programs that want isolated extension sets, routed into runs via
// WithRegistry and into campaigns via CampaignConfig.Registry.
type Registry = scenario.Registry

// AlgorithmDescriptor registers a robot algorithm under a
// Scenario-referable name.
type AlgorithmDescriptor = scenario.AlgorithmDescriptor

// FamilyDescriptor registers a dynamics family: typed/validated
// parameters, a seeded constructor (Graph for oblivious families — which
// compose — or Build for adaptive ones), a default oracle expectation,
// optional pinned placements, and the sampling hooks the "registered"
// generator uses.
type FamilyDescriptor = scenario.FamilyDescriptor

// ParamField declares one Scenario parameter a family reads, with its
// valid range; validation checks declared fields generically.
type ParamField = scenario.ParamField

// ParamKind says how a declared parameter is interpreted.
type ParamKind = scenario.ParamKind

// Parameter kinds.
const (
	ParamInt   = scenario.ParamInt
	ParamFloat = scenario.ParamFloat
)

// Property is a named oracle predicate; a Scenario's Expect field selects
// which registered property judges its runs.
type Property = scenario.Property

// PropertyInput is everything a property predicate may judge.
type PropertyInput = scenario.PropertyInput

// PropertyResult is a property's judgment of one run.
type PropertyResult = scenario.PropertyResult

// EvolvingGraph is an oblivious evolving ring: a pure function of
// (edge, time) deciding edge presence. FamilyDescriptor.Graph returns
// one; implement it to register custom oblivious dynamics.
type EvolvingGraph = dyngraph.EvolvingGraph

// Ring is the underlying static ring (V, E) every dynamics evolves over;
// NewRing constructs one for custom EvolvingGraph implementations.
type Ring = ring.Ring

// NewRing returns the static n-node ring.
func NewRing(n int) Ring { return ring.New(n) }

// Rand is the deterministic pseudo-random source handed to
// FamilyDescriptor.Sample hooks.
type Rand = prng.Source

// NewRegistry returns a fresh registry preloaded with the built-in
// algorithms, families and properties, independent of the process
// default.
func NewRegistry() *Registry { return scenario.NewRegistry() }

// DefaultRegistry returns the process-wide registry used by Scenario
// validation, Run and campaigns unless overridden.
func DefaultRegistry() *Registry { return scenario.DefaultRegistry() }

// RegisterAlgorithm installs an algorithm descriptor in the default
// registry. It fails on an empty or reserved name, a nil constructor, or
// a name collision — names are provenance, never silently replaced.
func RegisterAlgorithm(name string, d AlgorithmDescriptor) error {
	return scenario.DefaultRegistry().RegisterAlgorithm(name, d)
}

// RegisterFamily installs a dynamics-family descriptor in the default
// registry; Scenario.Family values select it, the "registered" generator
// samples it when Explorable, and pef scenarios -list enumerates it. It
// fails on an empty or reserved name, a descriptor with neither Graph nor
// Build, or a name collision.
func RegisterFamily(name string, d FamilyDescriptor) error {
	return scenario.DefaultRegistry().RegisterFamily(name, d)
}

// RegisterProperty installs an oracle property in the default registry;
// Scenario.Expect values select it. It fails on an empty or reserved
// name, a nil predicate, or a name collision.
func RegisterProperty(name string, p Property) error {
	return scenario.DefaultRegistry().RegisterProperty(name, p)
}

// ScenarioFamilies lists the dynamics families registered in the default
// registry, in registration (canonical) order.
func ScenarioFamilies() []string { return scenario.DefaultRegistry().FamilyNames() }

// ScenarioProperties lists the oracle properties registered in the
// default registry, in registration (canonical) order.
func ScenarioProperties() []string { return scenario.DefaultRegistry().PropertyNames() }

// Compose modes accepted by ComposeFamilies.
const (
	ComposeUnion      = dynamics.ComposeUnion
	ComposeIntersect  = dynamics.ComposeIntersect
	ComposeInterleave = dynamics.ComposeInterleave
)

// ComposeFamilies builds a family descriptor folding the named registered
// oblivious families' edge schedules together under mode (ComposeUnion,
// ComposeIntersect or ComposeInterleave): the members share the
// scenario's parameter bag, each builds from a seed derived from the
// scenario seed and its position, and the composition samples and
// validates through the members' own declarations. Register the result
// (conventionally under a "compose:" name) to make it campaign-reachable;
// the built-in compose:union, compose:intersect and compose:interleave
// families are exactly such registrations.
func ComposeFamilies(mode string, members ...string) (FamilyDescriptor, error) {
	return scenario.DefaultRegistry().ComposeFamilies(mode, members...)
}

// PeriodicTimetable returns the dynamics whose edge e follows the fixed
// appearance timetable patterns[e] (one presence bit per instant,
// repeating): the periodically-varying rings of Flocchini–Mans–Santoro,
// subway timetables, duty-cycled radio links. There is one pattern per
// edge (len(patterns) is the ring size); every pattern must contain at
// least one presence bit, which makes the dynamics connected-over-time.
// The seeded counterpart behind the registered "periodic" family draws
// random timetables of a given period; this constructor pins them
// exactly.
func PeriodicTimetable(patterns [][]bool) (Dynamics, error) {
	g, err := dynamics.NewPeriodic(len(patterns), patterns)
	if err != nil {
		return nil, err
	}
	return fsync.Oblivious{G: g}, nil
}

// ComposeDynamics folds the edge schedules of existing oblivious
// evolving graphs directly (the imperative counterpart of
// ComposeFamilies): union keeps an edge when any member has it,
// intersect when all do, interleave alternates rounds among members.
func ComposeDynamics(mode string, members ...EvolvingGraph) (Dynamics, error) {
	g, err := dynamics.NewComposed(mode, members...)
	if err != nil {
		return nil, err
	}
	return fsync.Oblivious{G: g}, nil
}
