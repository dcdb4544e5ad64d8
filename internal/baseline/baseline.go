// Package baseline provides a diverse suite of candidate deterministic
// algorithms. The impossibility theorems of the paper (4.1 and 5.1)
// quantify over *all* deterministic algorithms; their adversaries are
// implemented algorithm-agnostically in package adversary, and this suite
// is the empirical stand-in for the universal quantifier: every experiment
// runs the adversary against each member and shows confinement for all.
//
// The members cover the natural design space: direction-keepers, missing-
// edge bouncers, bounded and doubling zigzags, tower-reactive rules, and a
// deterministic pseudo-random walker. The memoryless members are
// robot.Tables, so they run on both engines; the counting members keep
// their own scalar cores.
package baseline

import (
	"fmt"
	"strconv"

	"pef/internal/robot"
)

// KeepDirectionName names the never-turning walker.
const KeepDirectionName = "keep-direction"

// KeepDirection never changes direction (Rule 1 of PEF_3+ alone). On a
// static ring one such robot explores perpetually; one blocked edge defeats
// it.
var KeepDirection = robot.NewTable(KeepDirectionName, func(bool, robot.View) (bool, bool) {
	return false, false
})

// BounceOnMissingName names the blocked-edge bouncer.
const BounceOnMissingName = "bounce-on-missing"

// BounceOnMissing turns back exactly when the edge it points to is absent.
// It perpetually explores a ring with one eventual missing edge (it sweeps
// the resulting chain), which makes it the strongest single-robot candidate
// — and exactly the algorithm the Theorem 5.1 adversary is built to beat.
var BounceOnMissing = robot.NewTable(BounceOnMissingName, func(_ bool, v robot.View) (bool, bool) {
	return !v.EdgeDir && v.EdgeOpp, false
})

// TowerBounceName names the meet-reactive bouncer.
const TowerBounceName = "tower-bounce"

// TowerBounce turns back when co-located with another robot or blocked,
// a natural "social" exploration rule.
var TowerBounce = robot.NewTable(TowerBounceName, func(_ bool, v robot.View) (bool, bool) {
	return v.OtherRobots || (!v.EdgeDir && v.EdgeOpp), false
})

// Pendulum sweeps m successful steps in one direction, then turns and
// sweeps m steps the other way, forever. A robot knows it will move this
// round iff the edge it points to is present (FSYNC), so the step counter
// advances on ExistsEdge(dir).
type Pendulum struct {
	// M is the sweep length in successful steps; must be >= 1.
	M int
}

// Name implements robot.Algorithm.
func (p Pendulum) Name() string { return "pendulum-" + strconv.Itoa(p.M) }

// NewCore implements robot.Algorithm.
func (p Pendulum) NewCore() robot.Core {
	if p.M < 1 {
		panic(fmt.Sprintf("baseline: pendulum sweep %d below 1", p.M))
	}
	return &pendulumCore{dir: robot.Left, sweep: p.M}
}

type pendulumCore struct {
	dir   robot.LocalDir
	sweep int
	done  int // successful steps in the current sweep
}

func (c *pendulumCore) Dir() robot.LocalDir { return c.dir }

func (c *pendulumCore) Compute(view robot.View) {
	look := c.dir // the direction the Look-phase predicates were gathered with
	if c.done >= c.sweep {
		c.dir = c.dir.Opposite()
		c.done = 0
	}
	if view.ExistsEdge(look, c.dir) {
		c.done++
	}
}

func (c *pendulumCore) State() robot.StateCode {
	return robot.SweepState(c.dir, c.done, c.sweep)
}

// DoublingZigzag sweeps 1 step, turns, sweeps 2, turns, sweeps 4, ... —
// the classic doubling search that covers any static ring from any start
// without knowing n. (The adversaries beat it anyway.)
type DoublingZigzag struct{}

// Name implements robot.Algorithm.
func (DoublingZigzag) Name() string { return "doubling-zigzag" }

// NewCore implements robot.Algorithm.
func (DoublingZigzag) NewCore() robot.Core {
	return &zigzagCore{dir: robot.Left, sweep: 1}
}

type zigzagCore struct {
	dir   robot.LocalDir
	sweep int
	done  int
}

func (c *zigzagCore) Dir() robot.LocalDir { return c.dir }

func (c *zigzagCore) Compute(view robot.View) {
	look := c.dir // the direction the Look-phase predicates were gathered with
	if c.done >= c.sweep {
		c.dir = c.dir.Opposite()
		// Cap the doubling so the counter cannot overflow on very long
		// adversary runs; by then the sweep already exceeds any ring size
		// used in experiments.
		if c.sweep < 1<<30 {
			c.sweep *= 2
		}
		c.done = 0
	}
	if view.ExistsEdge(look, c.dir) {
		c.done++
	}
}

func (c *zigzagCore) State() robot.StateCode {
	return robot.SweepState(c.dir, c.done, c.sweep)
}

// LCGWalker chooses its direction each round from a deterministic linear
// congruential sequence: it looks random but is a legitimate deterministic
// algorithm, probing that the adversaries do not rely on structural
// regularity of their victim.
type LCGWalker struct {
	// Seed selects the deterministic sequence; the same seed yields the
	// same walker (robots are uniform: every robot runs the same sequence).
	Seed uint64
}

// Name implements robot.Algorithm.
func (w LCGWalker) Name() string { return "lcg-walker-" + strconv.FormatUint(w.Seed, 10) }

// NewCore implements robot.Algorithm.
func (w LCGWalker) NewCore() robot.Core {
	return &lcgCore{dir: robot.Left, state: w.Seed*2 + 1}
}

type lcgCore struct {
	dir   robot.LocalDir
	state uint64
}

func (c *lcgCore) Dir() robot.LocalDir { return c.dir }

func (c *lcgCore) Compute(_ robot.View) {
	// Numerical Recipes LCG constants.
	c.state = c.state*6364136223846793005 + 1442695040888963407
	if c.state>>63 == 1 {
		c.dir = c.dir.Opposite()
	}
}

func (c *lcgCore) State() robot.StateCode {
	return robot.LCGState(c.dir, c.state)
}

// Oscillator flips direction every round, a pathological but legal member
// of the suite.
var Oscillator = robot.NewTable("oscillator", func(bool, robot.View) (bool, bool) {
	return true, false
})

// Suite returns the baseline algorithms in a stable order. Combined by the
// harness with the paper's own algorithms (run outside their valid (k, n)
// range) to form the empirical universal quantifier for the impossibility
// experiments.
func Suite() []robot.Algorithm {
	return []robot.Algorithm{
		KeepDirection,
		BounceOnMissing,
		TowerBounce,
		Pendulum{M: 3},
		DoublingZigzag{},
		LCGWalker{Seed: 7},
		Oscillator,
	}
}
