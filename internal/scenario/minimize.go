package scenario

import (
	"context"
	"math"
	"strings"
)

// Minimize deterministically shrinks a failing scenario to a smaller
// reproducer: it greedily lowers the horizon, ring size, team size and
// dynamics parameters — in that fixed order, smallest candidate first —
// keeping every step only if the shrunk spec still fails the same way
// (predicate violation stays a violation of the same enforced
// expectation and kind — for explore specs coverage, visit count or
// revisit gap; execution errors stay errors). The passes repeat until a
// fixed point, so Minimize is idempotent: Minimize(Minimize(s)) ==
// Minimize(s). A spec that does not fail is returned unchanged.
//
// For explore-expectation violations a shrink must also stay
// *attributable*: the paper's own algorithm at the shrunk (ring, team)
// must still satisfy the predicate there. Without this control run the
// shrinker would collapse every violation into a trivially unsatisfiable
// corner (horizon 1, say) that "fails" for any algorithm and reproduces
// nothing.
//
// Minimization re-runs the scenario for every accepted or probed
// candidate, so its cost is a small multiple of running the original
// spec; the horizon pass runs first to cut the per-probe cost early.
//
// Minimize resolves names through the default registry; violations found
// under a custom registry shrink via the Registry.Minimize method (the
// default would misread their families as unknown and "shrink" the
// config error instead of the behaviour).
func Minimize(s Spec) Spec { return DefaultRegistry().Minimize(s) }

// Minimize deterministically shrinks a failing scenario against this
// registry; see the package-level Minimize for the algorithm.
func (r *Registry) Minimize(s Spec) Spec {
	v := runIn(r, s)
	if v.OK && v.Err == "" {
		return s
	}
	// Pin the enforced expectation so shrinking cannot silently switch
	// the predicate being violated (e.g. an under-threshold shrink
	// turning an explore claim into a vacuous "none").
	if s.Expect == "" {
		s.Expect = v.Expect
	}
	wantErr, kind := v.Err != "", violationKind(v.Violation)
	fails := func(c Spec) bool {
		cv := runIn(r, c)
		if cv.OK && cv.Err == "" {
			return false
		}
		if (cv.Err != "") != wantErr {
			return false
		}
		return wantErr || violationKind(cv.Violation) == kind && stillAttributable(r, c)
	}
	for pass := 0; pass < 8; pass++ {
		next := shrinkOnce(s, fails)
		if next == s {
			break
		}
		s = next
	}
	return s
}

// stillAttributable guards explore-expectation shrinks against vacuous
// failures: the paper's proven algorithm at the candidate's (ring, team)
// must itself satisfy the predicate there, so the candidate's failure
// stays attributable to the scenario under test rather than to an
// unsatisfiable corner of the parameter space. When the suspect *is* the
// paper's algorithm (a genuine counterexample candidate against the
// reproduction), there is no independent control and the shrink is
// accepted on the failure signature alone.
func stillAttributable(r *Registry, c Spec) bool {
	if c.Expect != ExpectExplore {
		return true // confinement escapes and vacuous expectations shrink freely
	}
	control := paperAlgorithm(c.Ring, c.Robots)
	if control == "" {
		return false // outside the computable region: explore is unprovable there
	}
	if control == c.Algorithm {
		return true
	}
	cc := c
	cc.Algorithm = control
	cv := runIn(r, cc)
	return cv.OK && cv.Err == ""
}

// violationKind is a violation's text up to its first number, the kind a
// shrink must keep: "covered ", "a node was visited only " or "max revisit
// gap " for the explore predicate (spec.ExploreViolation).
func violationKind(msg string) string {
	if i := strings.IndexAny(msg, "0123456789"); i >= 0 {
		return msg[:i]
	}
	return msg
}

// runIn is Run against an explicit registry: errors fold into the
// verdict, like every campaign-facing entry point.
func runIn(r *Registry, s Spec) Verdict {
	v, err := RunWith(context.Background(), s, RunOptions{Registry: r})
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

// shrinkOnce runs every shrink pass once and returns the improved spec
// (== s at a fixed point).
func shrinkOnce(s Spec, fails func(Spec) bool) Spec {
	s = shrinkHorizon(s, fails)
	s = shrinkRing(s, fails)
	s = shrinkRobots(s, fails)
	s = shrinkParams(s, fails)
	return s
}

// accept returns c when it still fails, otherwise s.
func accept(s, c Spec, fails func(Spec) bool) (Spec, bool) {
	if fails(c) {
		return c, true
	}
	return s, false
}

// shrinkHorizon probes a fixed ladder of shorter horizons, smallest
// first.
func shrinkHorizon(s Spec, fails func(Spec) bool) Spec {
	h := s.Horizon
	for _, cand := range []int{1, h / 16, h / 8, h / 4, h / 2, (3 * h) / 4} {
		if cand < 1 || cand >= h {
			continue
		}
		c := s
		c.Horizon = cand
		if next, ok := accept(s, c, fails); ok {
			return next
		}
	}
	return s
}

// shrinkRing probes every smaller ring size in ascending order. Shrinks
// that break the spec's structural constraints produce error verdicts and
// are rejected by the failure-signature check (unless the original
// already errored, in which case a smaller erroring spec is exactly the
// minimal reproducer).
func shrinkRing(s Spec, fails func(Spec) bool) Spec {
	for n := 2; n < s.Ring; n++ {
		c := s
		c.Ring = n
		// Keep positional parameters inside the smaller ring so the probe
		// fails for behavioral reasons, not out-of-range indices.
		if c.Params.Edge >= n {
			c.Params.Edge = 0
		}
		if c.Params.Cut >= n {
			c.Params.Cut = 0
		}
		if next, ok := accept(s, c, fails); ok {
			return next
		}
	}
	return s
}

// shrinkRobots probes every smaller team size in ascending order.
func shrinkRobots(s Spec, fails func(Spec) bool) Spec {
	for k := 1; k < s.Robots; k++ {
		c := s
		c.Robots = k
		if next, ok := accept(s, c, fails); ok {
			return next
		}
	}
	return s
}

// shrinkParams probes simpler dynamics parameters: integers toward zero
// (halving, then zero), probabilities toward coarse one-decimal values.
func shrinkParams(s Spec, fails func(Spec) bool) Spec {
	ints := []struct {
		get func(*Params) *int
	}{
		{func(p *Params) *int { return &p.Delta }},
		{func(p *Params) *int { return &p.Edge }},
		{func(p *Params) *int { return &p.From }},
		{func(p *Params) *int { return &p.Period }},
		{func(p *Params) *int { return &p.T }},
		{func(p *Params) *int { return &p.Cut }},
		{func(p *Params) *int { return &p.Budget }},
	}
	for _, f := range ints {
		cur := *f.get(&s.Params)
		for _, cand := range []int{0, cur / 2} {
			if cand >= cur {
				continue
			}
			c := s
			*f.get(&c.Params) = cand
			if next, ok := accept(s, c, fails); ok {
				s = next
				break
			}
		}
	}
	floats := []func(*Params) *float64{
		func(p *Params) *float64 { return &p.P },
		func(p *Params) *float64 { return &p.Up },
		func(p *Params) *float64 { return &p.Down },
	}
	for _, get := range floats {
		cur := *get(&s.Params)
		for _, cand := range []float64{0, math.Round(cur*10) / 10} {
			if cand >= cur {
				continue
			}
			c := s
			*get(&c.Params) = cand
			if next, ok := accept(s, c, fails); ok {
				s = next
				break
			}
		}
	}
	return s
}
