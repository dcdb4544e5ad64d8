package pef

import (
	"context"
	"io"
	"iter"

	"pef/internal/fsync"
	"pef/internal/scenario"
	"pef/internal/trace"
)

// Observer receives one event per completed simulation round; attach one
// to a Run via WithObservers. The *RoundEvent, both *Snapshots it points
// at and its presence set are owned by the simulator and overwritten by
// the next round: observers that retain data must Clone (see RoundEvent).
type Observer = fsync.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = fsync.ObserverFunc

// RoundEvent describes one completed round, as delivered (by pointer) to
// observers. It is valid only until the next round.
type RoundEvent = fsync.RoundEvent

// Option customizes a Run beyond what the declarative Scenario pins down.
type Option func(*runSettings)

type runSettings struct {
	opts      scenario.RunOptions
	traceSink io.Writer
}

// WithPlacements fixes the initial configuration explicitly, overriding
// the scenario's placement policy (the confinement adversaries keep their
// proofs' initial configuration regardless).
func WithPlacements(placements ...Placement) Option {
	return func(s *runSettings) { s.opts.Placements = placements }
}

// WithObservers attaches extra observers to the simulation — diagnostics,
// custom metrics, convergence probes — in addition to the oracle's own
// trackers.
func WithObservers(obs ...Observer) Option {
	return func(s *runSettings) { s.opts.Observers = append(s.opts.Observers, obs...) }
}

// WithTrace streams the execution to w as one JSON round record per line
// (the format read by trace.ReadRounds and the pef journey/pef mirror
// tools), turning any Run into a replayable trace without retaining
// history in memory.
func WithTrace(w io.Writer) Option {
	return func(s *runSettings) { s.traceSink = w }
}

// WithTelemetry attaches an instrumentation bundle to the run: the
// oracle and the simulators record counters into it (rounds, pool
// traffic, per-family wall time). Unlike WithObservers it never forces a
// campaign block off the lockstep engine, and the verdict is
// byte-identical with or without it.
func WithTelemetry(t *Telemetry) Option {
	return func(s *runSettings) { s.opts.Telemetry = t }
}

// WithAlgorithm overrides the scenario's algorithm registry lookup with
// an explicit Algorithm value — the bridge from imperative configurations
// (custom or unregistered algorithms) into the unified Run path. The
// scenario's Algorithm name then only labels the verdict.
func WithAlgorithm(alg Algorithm) Option {
	return func(s *runSettings) { s.opts.Algorithm = alg }
}

// WithDynamics overrides the scenario's dynamics-family build with an
// explicit Dynamics value (its ring size must equal the scenario's Ring).
// The scenario's Family then only labels the verdict.
func WithDynamics(dyn Dynamics) Option {
	return func(s *runSettings) { s.opts.Dynamics = dyn }
}

// WithRegistry resolves the scenario's algorithm, family and property
// names through r instead of the process-default registry — the bridge
// for embedding programs that keep isolated extension sets (see
// NewRegistry).
func WithRegistry(r *Registry) Option {
	return func(s *runSettings) { s.opts.Registry = r }
}

// Run is the unified, context-aware entry point of this package: it
// executes one Scenario — declarative or assembled via options — under
// ctx and returns the property oracle's structured verdict for it.
// Explore is a thin wrapper over Run that returns the full
// ExplorationReport; campaigns stream Run at scale via StreamCampaign.
//
// Configuration problems (non-positive horizon, unknown names,
// inconsistent overrides) return a non-nil error. Run polls ctx every 256
// rounds; when ctx is cancelled mid-run, Run returns the partial verdict
// — metrics over the rounds that executed, Outcome "cancelled" — together
// with ctx's error. Predicate
// violations are not errors: they come back as OK=false verdicts with a
// nil error.
func Run(ctx context.Context, s Scenario, options ...Option) (ScenarioVerdict, error) {
	var set runSettings
	for _, o := range options {
		o(&set)
	}
	if set.traceSink != nil {
		logger := trace.NewJSONLogger(set.traceSink)
		set.opts.Observers = append(set.opts.Observers, logger)
		v, err := scenario.RunWith(ctx, s, set.opts)
		if err == nil {
			err = logger.Err()
		}
		return v, err
	}
	return scenario.RunWith(ctx, s, set.opts)
}

// RunSeeds executes one Scenario shape across many seeds — the
// seed-batched entry point of the bit-parallel lockstep engine. The
// scenario runs once per seed (its Seed field is replaced by each
// element), and eligible runs — registered oblivious dynamics on a ring
// of at most 64 nodes, a rule-table algorithm (the paper's three, both
// ablations and the memoryless baselines), no imperative overrides —
// advance up to 64 seeds per machine word in one
// engine instance. Ineligible runs fall back to the scalar engine.
// Either way verdict i is byte-identical to Run with Seed = seeds[i].
//
// Per-seed failures (invalid specs, panics) come back as error verdicts,
// like campaign workers record them; the returned error is non-nil only
// when ctx was cancelled, in which case verdicts of unfinished seeds
// carry Outcome "cancelled".
func RunSeeds(ctx context.Context, s Scenario, seeds []uint64, options ...Option) ([]ScenarioVerdict, error) {
	var set runSettings
	for _, o := range options {
		o(&set)
	}
	specs := make([]scenario.Spec, len(seeds))
	for i, seed := range seeds {
		sp := s
		sp.Seed = seed
		specs[i] = sp
	}
	if set.traceSink != nil {
		// Observers force the scalar path, which runs seeds in order, so
		// the trace is the seeds' round streams concatenated.
		logger := trace.NewJSONLogger(set.traceSink)
		set.opts.Observers = append(set.opts.Observers, logger)
		vs := scenario.RunBlock(ctx, specs, set.opts)
		if err := logger.Err(); err != nil {
			return vs, err
		}
		return vs, ctx.Err()
	}
	return scenario.RunBlock(ctx, specs, set.opts), ctx.Err()
}

// CampaignAggregate is the online campaign aggregation state consumed by
// StreamCampaign loops: Add verdicts as they stream, render reports that
// are byte-identical to RunCampaign's, snapshot a Checkpoint at any time.
// It holds O(aggregate) memory — never O(scenarios).
type CampaignAggregate = scenario.Aggregate

// CampaignCheckpoint is the serialized state of a partially executed
// campaign; see CampaignConfig.Resume and Campaign.Checkpoint.
type CampaignCheckpoint = scenario.Checkpoint

// NewCampaignAggregate creates the aggregation state for the campaign
// described by cfg. When cfg.Resume is set, the checkpointed prefix is
// folded in, so adding the resumed verdict stream reproduces the
// uninterrupted campaign's reports exactly.
func NewCampaignAggregate(cfg CampaignConfig) (*CampaignAggregate, error) {
	return scenario.NewAggregate(cfg)
}

// DecodeCampaignCheckpoint parses and validates an encoded campaign
// checkpoint.
func DecodeCampaignCheckpoint(data []byte) (*CampaignCheckpoint, error) {
	return scenario.DecodeCheckpoint(data)
}

// StreamCampaign generates cfg.Count scenarios per seed and shards them
// across the worker pool, yielding one (verdict, error) pair per scenario
// in canonical order — byte-identical for any worker count — while
// holding only a worker-window of state. It is the bounded-memory form of
// RunCampaign: fold the verdicts into a CampaignAggregate for reports, or
// consume them directly for online processing.
//
// A configuration failure yields exactly one (zero verdict, err) pair.
// After a context cancellation, remaining scenarios are still yielded in
// order with identity-filled error verdicts and err set to ctx.Err().
// When cfg.Resume is set, the checkpointed prefix is skipped and only the
// remaining scenarios stream.
func StreamCampaign(ctx context.Context, cfg CampaignConfig) iter.Seq2[ScenarioVerdict, error] {
	return scenario.StreamCampaign(ctx, cfg)
}

// Minimize deterministically shrinks a failing scenario — one whose
// verdict violates its predicate or errors — to a smaller reproducer,
// greedily lowering horizon, ring size, team size and dynamics parameters
// while preserving the failure. It is idempotent, returns passing
// scenarios unchanged, and re-runs the scenario per probe (so its cost is
// a small multiple of one run). Use it on campaign violations to turn a
// sampled counterexample into a minimal, shareable one.
//
// Minimize resolves names through the default registry; shrink
// violations found under a custom registry with its Registry.Minimize
// method instead.
func Minimize(s Scenario) Scenario { return scenario.Minimize(s) }
