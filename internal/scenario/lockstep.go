package scenario

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pef/internal/adversary"
	"pef/internal/fsync"
	"pef/internal/robot"
	"pef/internal/spec"
)

// This file routes blocks of specs through the bit-parallel lockstep
// engine: up to 64 specs on one ring and rule table advance per word,
// oblivious and block-pointed specs alike. Eligibility is conservative —
// anything the lane engine cannot represent (big rings, adaptive
// adversaries without a lane form, imperative overrides, algorithms that
// are not a robot.Table) falls back to the scalar oracle — and every lane's
// verdict is byte-identical to the scalar RunWith verdict for the same
// spec, an invariant the differential tests in lockstep_test.go pin
// across all registered families and generators.

// laneWordSize is the lane capacity of one engine run: one seed per bit
// of a uint64.
const laneWordSize = 64

// laneEval bundles the per-block lane tracker a campaign worker reuses
// from block to block, mirroring the scalar evaluator pool.
type laneEval struct {
	lv      *spec.LaneVisits
	runs    []fsync.LaneRun
	budgets []int // per lane: block-pointed budget, 0 for graph lanes
	bp      adversary.BlockPointedLanes
}

var laneEvalPool = sync.Pool{New: func() any {
	return &laneEval{lv: spec.NewLaneVisits()}
}}

// lockstepEligible reports whether the spec may run on the lane engine
// under the given options, returning the resolved rule table and
// dynamics when it may — or, when it may not, a short reason tag for the
// engine.skip.* telemetry counters. The dynamics must be an oblivious
// graph or a fresh block-pointed adversary (its lane form); confine-one
// and confine-two are scalar-only. So are overrides (imperative
// algorithm/dynamics, explicit placements, observers — but NOT attached
// Telemetry, which is observational), rings wider than the 64-bit
// presence word and algorithms that are not a robot.Table (the counting
// baselines). A dynamics build error also reports ineligible: the scalar
// path rebuilds and reports the identical error verdict.
func lockstepEligible(s Spec, o RunOptions, res preparedRun) (*robot.Table, fsync.Dynamics, bool, string) {
	if o.hasOverrides() {
		return nil, nil, false, "overrides"
	}
	if s.Ring > laneWordSize {
		return nil, nil, false, "ring-width"
	}
	table, ok := res.alg.(robot.Table)
	if !ok {
		return nil, nil, false, "algorithm"
	}
	dyn, err := res.fam.build(s)
	if err != nil {
		return nil, nil, false, "family-build"
	}
	switch d := dyn.(type) {
	case fsync.Oblivious:
		ok = d.G != nil
	case *adversary.BlockPointed:
		_, fresh := d.LaneBudget()
		ok = fresh && d.Ring().Size() == s.Ring
	default:
		ok = false
	}
	if !ok {
		return nil, nil, false, "dynamics"
	}
	return &table, dyn, true, ""
}

// blockKey is the shape a lane group must share: one lockstep run drives
// one ring size and one algorithm across all its lanes (per-lane team
// sizes, graphs, placements, horizons and verdicts differ freely).
type blockKey struct {
	ring      int
	algorithm string
}

// blockUnit is one independently executable piece of a block: a lane
// group of at most 64 specs sharing a blockKey (alg non-nil) or a single
// scalar spec (alg nil, one member). Units share nothing but read-only
// plan state and write disjoint verdict slots.
type blockUnit struct {
	members []int
	alg     *robot.Table
}

// RunBlock executes a block of specs, routing eligible runs that share a
// ring and table through the lockstep engine (up to 64 per instance) and
// everything else through the scalar oracle. Verdicts come back in spec
// order and are byte-identical to per-spec RunWith calls, with run errors
// folded into Verdict.Err exactly like the campaign worker folds them.
//
// It runs in two phases. The plan is sequential: it resolves every spec,
// decides its engine and cuts the eligible ones into lane groups by
// (ring, table), yielding a list of independent units (lane groups in
// first-member order, then scalar specs in spec order). The execute phase
// runs those units on up to o.fan goroutines pulling from one cursor,
// each with its own lane scratch; verdicts are written by position, so
// the output bytes do not depend on the fan or on scheduling. Only
// StreamSpecs sets a fan above 1 (see streamBlocks); every other caller,
// and any options carrying a caller-supplied override, runs the units one
// at a time on the calling goroutine.
func RunBlock(ctx context.Context, specs []Spec, o RunOptions) []Verdict {
	out := make([]Verdict, len(specs))

	// Plan: group eligible specs by (ring, table); the rest run scalar.
	tel := o.Telemetry
	groups := map[blockKey][]int{}
	algs := map[blockKey]*robot.Table{}
	dyns := make([]fsync.Dynamics, len(specs))
	var scalar []int
	for i, s := range specs {
		v, res, err := prepareRun(s, o)
		if err != nil {
			// The error verdict is final; RunWith would add nothing.
			out[i] = v
			continue
		}
		la, dyn, ok, reason := lockstepEligible(s, o, res)
		if !ok {
			if tel != nil {
				tel.scalarSpecs.Inc()
				tel.skipReason(reason).Inc()
			}
			scalar = append(scalar, i)
			continue
		}
		key := blockKey{s.Ring, s.Algorithm}
		dyns[i] = dyn
		groups[key] = append(groups[key], i)
		if _, seen := algs[key]; !seen {
			algs[key] = la
		}
	}

	// Cut groups into units in first-member order so the work schedule is
	// deterministic (verdict order is positional either way). Lane groups
	// come first: they are the heavy units, which keeps the tail short
	// when several goroutines share the cursor.
	keys := make([]blockKey, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && groups[keys[j]][0] < groups[keys[j-1]][0]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	units := make([]blockUnit, 0, len(keys)+len(scalar))
	for _, key := range keys {
		members := groups[key]
		for len(members) > 0 {
			lanes := min(len(members), laneWordSize)
			units = append(units, blockUnit{members: members[:lanes], alg: algs[key]})
			members = members[lanes:]
		}
	}
	for j := range scalar {
		units = append(units, blockUnit{members: scalar[j : j+1]})
	}

	// Execute: every goroutine drains the shared cursor with its own lane
	// scratch. Overrides are caller objects that were never called
	// concurrently, so they pin the block to the calling goroutine.
	fan := min(max(o.fan, 1), len(units))
	if o.hasOverrides() {
		fan = 1
	}
	var cursor atomic.Int64
	drain := func() {
		ev := laneEvalPool.Get().(*laneEval)
		defer laneEvalPool.Put(ev)
		for u := int(cursor.Add(1)) - 1; u < len(units); u = int(cursor.Add(1)) - 1 {
			unit := units[u]
			switch {
			case unit.alg == nil:
				out[unit.members[0]] = runScalar(ctx, specs[unit.members[0]], o)
			case tel != nil:
				start := time.Now()
				runLockstepGroup(ctx, specs, dyns, unit.members, *unit.alg, o, ev, out)
				tel.lockstepMillis.Add(time.Since(start).Milliseconds())
			default:
				runLockstepGroup(ctx, specs, dyns, unit.members, *unit.alg, o, ev, out)
			}
		}
	}
	if fan <= 1 {
		drain()
		return out
	}
	var wg sync.WaitGroup
	wg.Add(fan - 1)
	for range fan - 1 {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return out
}

// runScalar is RunWith with the campaign worker's error folding.
func runScalar(ctx context.Context, s Spec, o RunOptions) Verdict {
	v, err := RunWith(ctx, s, o)
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

// runLockstepGroup advances one (ring, table) group of specs (≤ 64) on a
// single lockstep engine instance and writes their verdicts into out. Any
// engine-level failure — configuration rejection or a panic mid-run —
// falls back to scalar runs for the whole group, which rebuild their
// dynamics from the specs and reproduce the verdicts (or the error)
// independently. The group counts as lane work in the telemetry only once
// it has finished on lanes; a fallen-back group counts as scalar specs
// under engine.skip.fallback.
func runLockstepGroup(ctx context.Context, specs []Spec, dyns []fsync.Dynamics, members []int, alg robot.Table, o RunOptions, ev *laneEval, out []Verdict) {
	tel := o.Telemetry
	fallback := true
	defer func() {
		if r := recover(); r != nil {
			fallback = true
		}
		switch {
		case tel == nil:
		case fallback:
			tel.scalarSpecs.Add(int64(len(members)))
			tel.skipReason("fallback").Add(int64(len(members)))
		default:
			tel.lockstepGroups.Inc()
			tel.lockstepSpecs.Add(int64(len(members)))
			tel.laneOccupancy.Observe(len(members))
		}
		if fallback {
			for _, i := range members {
				out[i] = runScalar(ctx, specs[i], o)
			}
		}
	}()

	ev.runs, ev.budgets = ev.runs[:0], ev.budgets[:0]
	var adv fsync.LaneAdversary
	for _, i := range members {
		s := specs[i]
		run := fsync.LaneRun{Placements: placements(o.registry(), s), Horizon: s.Horizon}
		budget := 0
		switch d := dyns[i].(type) {
		case fsync.Oblivious:
			run.Graph = d.G
		case *adversary.BlockPointed:
			budget, _ = d.LaneBudget()
			adv = &ev.bp
		}
		ev.runs = append(ev.runs, run)
		ev.budgets = append(ev.budgets, budget)
	}
	if adv != nil {
		ev.bp.Reset(specs[members[0]].Ring, ev.budgets)
	}
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{
		Algorithm: alg,
		Lanes:     ev.runs,
		Adversary: adv,
		Metrics:   tel.simMetrics(),
	})
	if err != nil {
		return // scalar fallback reproduces the rejection per spec
	}

	n := ls.Ring().Size()
	lv := ev.lv
	lv.Reset(n)
	all := ^uint64(0)
	if len(members) < laneWordSize {
		all = uint64(1)<<uint(len(members)) - 1
	}

	check := o.CheckEvery
	if check < 1 {
		check = 256
	}
	sinceCheck := 0
	cancelled := false
	primed := false
	for !ls.Done() {
		if sinceCheck <= 0 {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			sinceCheck = check
		}
		if !primed {
			// The initial configuration counts as a visited instant, but —
			// like the scalar trackers, which prime on the first observed
			// round — only once at least one round actually executes.
			lv.Record(0, ls.Occupancy(), all)
			primed = true
		}
		stepped := ls.Step()
		lv.Record(ls.Now(), ls.Occupancy(), stepped)
		sinceCheck--
	}
	executed := ls.Now()
	stillActive := ls.Active()
	ls.Release()
	fallback = false

	for l, i := range members {
		s := specs[i]
		v, res, perr := prepareRun(s, o)
		if perr != nil {
			// prepareRun succeeded during grouping; a failure here would be
			// a registry mutation mid-block. Surface the error verdict.
			out[i] = v
			continue
		}
		if cancelled && stillActive&(1<<uint(l)) != 0 {
			instants := executed + 1
			if !primed {
				instants = 0 // no round ran: the scalar tracker saw nothing
			}
			rep := lv.Report(l, instants)
			v.Covered, v.CoverTime, v.MaxGap = rep.Covered, rep.CoverTime, rep.MaxGap
			v.Distinct = rep.Covered
			v.Outcome = "cancelled"
			v.Err = fmt.Sprintf("cancelled after %d of %d rounds: %v", executed, s.Horizon, ctx.Err())
			v.OK = false
			out[i] = v
			continue
		}
		classify(&v, s, res, lv.Report(l, s.Horizon+1))
		out[i] = v
	}
}
