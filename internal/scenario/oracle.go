package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/spec"
)

// Verdict is the oracle's structured outcome for one spec: the expectation
// it enforced, what actually happened, scalar metrics, and — when the
// paper's predicate failed — a violation message. A Verdict with OK=false
// is a counterexample candidate against the paper (or, far more likely, a
// bug in the reproduction); campaigns treat any of them as failures.
type Verdict struct {
	// ID is the spec's canonical identifier.
	ID string `json:"id"`
	// Spec is the scenario that ran.
	Spec Spec `json:"spec"`
	// Expect is the enforced expectation (never empty on a successful
	// run: derived via the registry when the spec leaves it open).
	Expect string `json:"expect"`
	// Outcome summarizes the run: "explored", "partial", "confined",
	// "escaped", or "error".
	Outcome string `json:"outcome"`
	// OK reports that the expectation holds (vacuously true for
	// ExpectNone).
	OK bool `json:"ok"`
	// Covered, CoverTime and MaxGap are the exploration metrics of the
	// run (CoverTime is -1 when the ring was never fully covered).
	Covered   int `json:"covered"`
	CoverTime int `json:"coverTime"`
	MaxGap    int `json:"maxGap"`
	// Distinct is the number of distinct nodes ever visited (the
	// quantity the confinement theorems bound).
	Distinct int `json:"distinct"`
	// Violation explains a failed predicate.
	Violation string `json:"violation,omitempty"`
	// Err reports an execution error or recovered panic.
	Err string `json:"error,omitempty"`
}

// AlgorithmNames lists every algorithm name a Spec may reference in the
// default registry, in canonical (registration) order.
func AlgorithmNames() []string {
	return DefaultRegistry().AlgorithmNames()
}

// placements realizes the spec's placement policy. Families that pin
// their initial configuration (the confinement adversaries require their
// proofs') override the policy via their descriptor.
func placements(r *Registry, s Spec) []fsync.Placement {
	if d, ok := r.Family(s.Family); ok && d.Placements != nil {
		return d.Placements(s)
	}
	switch s.Placement {
	case PlaceEven:
		return fsync.EvenPlacements(s.Ring, s.Robots)
	case PlaceAdjacent:
		return fsync.AdjacentPlacements(s.Ring, s.Robots, 0)
	default:
		return fsync.RandomPlacements(s.Ring, s.Robots, prng.NewSource(s.Seed))
	}
}

// markovWindow is the sliding-window size of streaming markov runs; the
// simulator reads only the current instant, so a handful of retained
// snapshots is plenty.
const markovWindow = 8

// evaluator bundles the per-spec checkers a campaign worker reuses from
// spec to spec; together with the fsync simulator pool it makes the
// steady-state per-round cost of a campaign allocation-free. The visit
// tracker is the only one: its Covered count is also the verdict's
// Distinct, since both count the nodes occupied in the recorded instants.
type evaluator struct {
	vt *spec.VisitTracker
}

var evalPool = sync.Pool{New: func() any {
	return &evaluator{vt: spec.NewVisitTracker(1)}
}}

// RunOptions customizes one oracle run beyond what the declarative Spec
// pins down. The zero value runs the spec exactly as written against the
// default registry; overrides let the facade route imperative
// configurations (arbitrary Algorithm and Dynamics values, explicit
// placements, extra observers, alternative registries) through the same
// unified execution and verdict path.
type RunOptions struct {
	// Registry, when non-nil, resolves algorithm, family and property
	// names instead of the process default.
	Registry *Registry
	// Algorithm, when non-nil, overrides the Spec.Algorithm registry
	// lookup — the spec's name then only labels the verdict.
	Algorithm robot.Algorithm
	// Dynamics, when non-nil, overrides the Spec.Family build. Its ring
	// size must equal Spec.Ring; the spec's family then only labels the
	// verdict.
	Dynamics fsync.Dynamics
	// Placements, when non-empty, overrides the spec's placement policy
	// (but never a family's pinned proof configuration).
	Placements []fsync.Placement
	// Observers are attached to the simulator in addition to the oracle's
	// own trackers — trace sinks, diagnostics, custom metrics.
	Observers []fsync.Observer
	// CheckEvery is the number of rounds between context-cancellation
	// polls; values < 1 mean 256. Smaller values cancel long horizons
	// faster at slightly higher per-round cost.
	CheckEvery int
	// Telemetry, when non-nil, receives oracle and engine instrumentation
	// (run counts, per-family wall time, simulator round counters). It is
	// observational only — verdicts are byte-identical with or without it
	// — and, unlike Observers, it does not force a block off the lockstep
	// path.
	Telemetry *Telemetry

	// fan bounds how many goroutines RunBlock spreads one block's units
	// over; values < 2 run them one at a time on the caller. Only
	// StreamSpecs sets it (see streamBlocks), and overrides force 1.
	fan int
}

// hasOverrides reports whether the options carry caller-supplied engine
// objects (algorithm, dynamics, placements, observers). Such runs stay on
// the scalar path and on the calling goroutine.
func (o RunOptions) hasOverrides() bool {
	return o.Algorithm != nil || o.Dynamics != nil || len(o.Placements) > 0 || len(o.Observers) > 0
}

// registry resolves the effective registry of the options.
func (o RunOptions) registry() *Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return DefaultRegistry()
}

// validateForRun checks the spec like Spec.Validate, relaxed by the
// overrides: an injected Algorithm skips the registry lookup, an injected
// Dynamics skips the family checks (the engine still validates ring/team
// shape). Non-positive horizons are always rejected — a zero-round run
// would report Covered=0 without ever executing, the silent-failure mode
// the unified entry point exists to close.
func validateForRun(s Spec, o RunOptions) error {
	reg := o.registry()
	if s.Ring < 2 {
		return fmt.Errorf("scenario: ring size %d below 2", s.Ring)
	}
	if s.Robots < 1 || s.Robots >= s.Ring {
		return fmt.Errorf("scenario: need 0 < robots < ring, got k=%d n=%d", s.Robots, s.Ring)
	}
	if s.Horizon < 1 {
		return fmt.Errorf("scenario: non-positive horizon %d (a run must execute at least one round)", s.Horizon)
	}
	if o.Algorithm == nil {
		if _, err := reg.Algorithm(s.Algorithm); err != nil {
			return err
		}
	}
	if len(o.Placements) == 0 {
		switch s.Placement {
		case PlaceRandom, PlaceEven, PlaceAdjacent:
		default:
			return fmt.Errorf("scenario: unknown placement %q", s.Placement)
		}
	} else if len(o.Placements) != s.Robots {
		return fmt.Errorf("scenario: %d explicit placements for k=%d robots", len(o.Placements), s.Robots)
	}
	if o.Dynamics != nil {
		if n := o.Dynamics.Ring().Size(); n != s.Ring {
			return fmt.Errorf("scenario: dynamics ring size %d disagrees with spec ring %d", n, s.Ring)
		}
	} else {
		d, err := reg.familyOrErr(s.Family)
		if err != nil {
			return err
		}
		if err := d.validateSpec(s.Family, s); err != nil {
			return err
		}
	}
	if s.Expect != "" {
		if _, ok := reg.Property(s.Expect); !ok {
			return fmt.Errorf("scenario: unknown expectation %q (registered properties: %v)", s.Expect, reg.PropertyNames())
		}
	}
	return nil
}

// Run executes the spec against the default registry and checks its
// property. It never panics: invalid specs and diverging runs come back
// as error verdicts, so one bad sample cannot take down a
// million-scenario campaign.
func Run(s Spec) Verdict {
	v, err := RunWith(context.Background(), s, RunOptions{})
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

// RunWith is the unified oracle entry point behind the public pef.Run: it
// executes the spec under ctx with the given overrides and checks the
// registered property for it.
//
// Configuration problems (invalid spec, unregistered names, inconsistent
// overrides) return a non-nil error alongside an error verdict. When ctx
// is cancelled mid-run the partial verdict — metrics over the rounds that
// did execute, Outcome "cancelled" — is returned together with ctx's
// error, so long horizons stay cancellable without losing what was
// already measured. Predicate violations are not errors: they come back
// as OK=false verdicts.
func RunWith(ctx context.Context, s Spec, o RunOptions) (v Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			v.Err = fmt.Sprintf("panic: %v", r)
			v.Outcome = "error"
			v.OK = false
		}
	}()
	if o.Telemetry != nil {
		o.Telemetry.scalarRuns.Inc()
		start := time.Now()
		defer func() {
			o.Telemetry.famMillis(s.Family).Add(time.Since(start).Milliseconds())
		}()
	}
	v, res, err := prepareRun(s, o)
	if err != nil {
		return v, err
	}
	reg, fam, alg := res.reg, res.fam, res.alg
	dyn := o.Dynamics
	if dyn == nil {
		if dyn, err = fam.build(s); err != nil {
			v.Err = err.Error()
			return v, err
		}
	}
	place := o.Placements
	if len(place) == 0 || fam.Placements != nil {
		place = placements(reg, s)
	}
	ev := evalPool.Get().(*evaluator)
	defer evalPool.Put(ev)
	vt := ev.vt
	vt.Reset(s.Ring)
	observers := make([]fsync.Observer, 0, 1+len(o.Observers))
	observers = append(observers, vt)
	observers = append(observers, o.Observers...)
	sim, err := fsync.Acquire(fsync.Config{
		Algorithm:  alg,
		Dynamics:   dyn,
		Placements: place,
		Observers:  observers,
		Metrics:    o.Telemetry.simMetrics(),
	})
	if err != nil {
		v.Err = err.Error()
		return v, err
	}
	check := o.CheckEvery
	if check < 1 {
		check = 256
	}
	cancelled := false
	for sim.Now() < s.Horizon {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		target := sim.Now() + check
		if target > s.Horizon {
			target = s.Horizon
		}
		for sim.Now() < target {
			sim.Step() // not sim.Run: its returned Snapshot would allocate per chunk
		}
	}
	executed := sim.Now()
	sim.Release()
	rep := vt.Report()
	if cancelled {
		err := ctx.Err()
		v.Covered, v.CoverTime, v.MaxGap = rep.Covered, rep.CoverTime, rep.MaxGap
		v.Distinct = rep.Covered
		v.Outcome = "cancelled"
		v.Err = fmt.Sprintf("cancelled after %d of %d rounds: %v", executed, s.Horizon, err)
		v.OK = false
		return v, err
	}
	classify(&v, s, res, rep)
	return v, nil
}

// preparedRun is everything the oracle resolves for a spec before
// execution: the registered descriptors both the scalar and the lockstep
// paths judge the run by.
type preparedRun struct {
	reg  *Registry
	fam  FamilyDescriptor
	prop Property
	alg  robot.Algorithm
}

// prepareRun is the shared pre-execution half of the oracle: it derives
// the enforced expectation, validates the spec against the overrides, and
// resolves the property, family and algorithm. On failure the returned
// verdict is the error verdict RunWith would produce.
func prepareRun(s Spec, o RunOptions) (Verdict, preparedRun, error) {
	reg := o.registry()
	v := Verdict{ID: s.ID(), Spec: s, Expect: s.Expect, CoverTime: -1, Outcome: "error"}
	res := preparedRun{reg: reg}
	if v.Expect == "" {
		// Deriving the expectation requires a registered family — an
		// unregistered name is a loud error here, never a silent
		// fall-through to report-only. The one exception is an injected
		// Dynamics: its family is documented as a verdict label only, so
		// an unregistered label falls back to the family-independent
		// algorithm-threshold rule.
		exp, eerr := reg.Expectation(s)
		if eerr != nil {
			if o.Dynamics == nil {
				v.Err = eerr.Error()
				return v, res, eerr
			}
			exp = algorithmExpectation(s)
		}
		v.Expect = exp
	}
	if verr := validateForRun(s, o); verr != nil {
		v.Err = verr.Error()
		return v, res, verr
	}
	prop, ok := reg.Property(v.Expect)
	if !ok {
		perr := fmt.Errorf("scenario: unknown expectation %q (registered properties: %v)", v.Expect, reg.PropertyNames())
		v.Err = perr.Error()
		return v, res, perr
	}
	res.prop = prop
	// validateForRun established the family is registered except under a
	// Dynamics override, where an absent (label-only) family leaves the
	// zero descriptor: no pinned placements, no confinement limit.
	res.fam, _ = reg.Family(s.Family)
	res.alg = o.Algorithm
	if res.alg == nil {
		alg, aerr := reg.Algorithm(s.Algorithm)
		if aerr != nil {
			v.Err = aerr.Error()
			return v, res, aerr
		}
		res.alg = alg
	}
	return v, res, nil
}

// classify is the shared post-execution half of the oracle: it fills the
// verdict's metrics from the exploration report and judges the run by the
// registered property — identically for the scalar and lockstep engines.
// Distinct is the report's Covered: the nodes occupied in some recorded
// instant.
func classify(v *Verdict, s Spec, res preparedRun, rep spec.ExplorationReport) {
	v.Covered, v.CoverTime, v.MaxGap = rep.Covered, rep.CoverTime, rep.MaxGap
	v.Distinct = rep.Covered

	exploreMsg := rep.ExploreViolation(2, s.Horizon/2)
	v.Outcome = "partial"
	if exploreMsg == "" {
		v.Outcome = "explored"
	}

	pr := res.prop.Check(PropertyInput{
		Spec:             s,
		Covered:          v.Covered,
		CoverTime:        v.CoverTime,
		MaxGap:           v.MaxGap,
		Distinct:         v.Distinct,
		ExploreViolation: exploreMsg,
		ConfineLimit:     res.fam.ConfineLimit,
	})
	v.OK = pr.OK
	if pr.Outcome != "" {
		v.Outcome = pr.Outcome
	}
	v.Violation = pr.Violation
}
