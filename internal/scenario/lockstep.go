package scenario

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pef/internal/fsync"
	"pef/internal/harness"
	"pef/internal/robot"
)

// This file routes blocks of specs through the bit-parallel lockstep
// engine, by way of the harness.LaneBlock runner, and the rest through the
// scalar oracle. Every lane's verdict is byte-identical to the scalar
// RunWith verdict for the same spec, an invariant the differential tests
// in lockstep_test.go pin across all registered families and generators.

const laneWordSize = 64 // lanes per engine run, and its widest ring: one bit of a uint64 each

var laneBlockPool = sync.Pool{New: func() any { return harness.NewLaneBlock() }}

// lockstepEligible returns the dynamics a spec runs on a lane, or nil and
// a short reason tag for the engine.skip.* counters. A lane needs a
// dynamics with a lane form (harness.LaneEligible: the oblivious graphs,
// block-pointed, confine-one and confine-two), a ring within the 64-bit
// presence word, a robot.Table algorithm (the counting baselines are not,
// so their confinement specs stay scalar) and options
// without overrides (attached Telemetry is observational and may ride
// along). A dynamics build error also reports ineligible: the scalar path
// rebuilds and reports the identical error verdict.
func lockstepEligible(s Spec, o RunOptions, res preparedRun) (fsync.Dynamics, string) {
	if o.hasOverrides() {
		return nil, "overrides"
	}
	if s.Ring > laneWordSize {
		return nil, "ring-width"
	}
	if _, ok := res.alg.(robot.Table); !ok {
		return nil, "algorithm"
	}
	dyn, err := res.fam.build(s)
	if err != nil {
		return nil, "family-build"
	}
	if !harness.LaneEligible(dyn, s.Ring) {
		return nil, "dynamics"
	}
	return dyn, ""
}

// lanePlan is what the plan keeps of a spec until its unit runs. A
// lane-eligible spec keeps the dynamics its lane runs, its rule table, and
// the property and confinement limit its verdict is classified against;
// RunBlock holds one per spec of the block, so it keeps none of the family
// descriptor. A scalar spec keeps its whole preparedRun behind scalar
// (nil for a lane spec), so that its run does not resolve it again.
type lanePlan struct {
	dyn          fsync.Dynamics
	table        robot.Table
	prop         Property
	confineLimit int
	scalar       *preparedRun
}

// newLanePlan keeps what a lane-eligible spec's group needs of its
// preparedRun; lockstepEligible has checked that its algorithm is a table.
func newLanePlan(dyn fsync.Dynamics, res preparedRun) lanePlan {
	return lanePlan{dyn: dyn, table: res.alg.(robot.Table), prop: res.prop, confineLimit: res.fam.ConfineLimit}
}

// RunBlock executes a block of specs, running eligible specs that share a
// ring as lane groups of up to 64 on a harness.LaneBlock and the
// rest through the scalar oracle. Verdicts come back in spec order and are
// byte-identical to per-spec RunWith calls, with run errors folded into
// Verdict.Err exactly like the campaign worker folds them.
//
// A sequential plan resolves every spec once and cuts the eligible ones
// into lane groups by ring, yielding independent units: lane groups, ring
// by ring in first-member order, then single scalar specs in spec order.
// Up to o.fan goroutines then drain the units from one cursor, each with
// its own LaneBlock, and write verdicts by position, so the output bytes
// do not depend on the fan or on scheduling. Only StreamSpecs sets a fan
// above 1 (see streamBlocks); options carrying a caller-supplied override
// run the units one at a time on the calling goroutine.
func RunBlock(ctx context.Context, specs []Spec, o RunOptions) []Verdict {
	out := make([]Verdict, len(specs))

	// Plan: cut eligible specs into lane groups by ring, the one shape a
	// lockstep run shares across its lanes (team sizes, tables, dynamics,
	// placements, horizons and verdicts differ freely); the rest run
	// scalar.
	tel := o.Telemetry
	rings := map[int]int{} // each ring's index in byRing
	var byRing, units [][]int
	plans := make([]lanePlan, len(specs))
	var scalar []int
	for i, s := range specs {
		v, res, err := prepareRun(s, o)
		// An error verdict is final (RunWith would add nothing); a lane
		// verdict is classified into it, a scalar run starts from it.
		out[i] = v
		if err != nil {
			continue
		}
		dyn, reason := lockstepEligible(s, o, res)
		if dyn == nil {
			if tel != nil {
				tel.scalarSpecs.Inc()
				tel.skipReason(reason).Inc()
			}
			scalarRes := res // a copy, so that lane specs' res stays off the heap
			plans[i].scalar = &scalarRes
			scalar = append(scalar, i)
			continue
		}
		plans[i] = newLanePlan(dyn, res)
		if r, ok := rings[s.Ring]; ok {
			byRing[r] = append(byRing[r], i)
		} else {
			rings[s.Ring] = len(byRing)
			byRing = append(byRing, []int{i})
		}
	}
	// A group steps until its longest lane retires, on as many rows as its
	// widest team, so a ring with more than 64 specs is cut longest and
	// widest first: its last group gets the short, narrow lanes rather
	// than a few long ones.
	for _, members := range byRing {
		if len(members) > laneWordSize {
			slices.SortStableFunc(members, func(a, b int) int {
				return cmp.Or(cmp.Compare(specs[b].Horizon, specs[a].Horizon), cmp.Compare(specs[b].Robots, specs[a].Robots))
			})
		}
		units = slices.AppendSeq(units, slices.Chunk(members, laneWordSize))
	}
	// Lane groups come first: they are the heavy units, which keeps the
	// tail short when several goroutines share the cursor.
	units = slices.AppendSeq(units, slices.Chunk(scalar, 1))

	// Execute: every goroutine drains the shared cursor with its own lane
	// block. Overrides are caller objects that were never called
	// concurrently, so they pin the block to the calling goroutine.
	fan := min(max(o.fan, 1), len(units))
	if o.hasOverrides() {
		fan = 1
	}
	var cursor atomic.Int64
	drain := func() {
		blk := laneBlockPool.Get().(*harness.LaneBlock)
		defer laneBlockPool.Put(blk)
		for u := int(cursor.Add(1)) - 1; u < len(units); u = int(cursor.Add(1)) - 1 {
			members := units[u]
			if i := members[0]; plans[i].scalar != nil {
				out[i] = foldErr(runPrepared(ctx, specs[i], o, out[i], *plans[i].scalar))
				continue
			}
			start := time.Now()
			runLockstepGroup(ctx, specs, plans, members, o, blk, out)
			tel.addLockstepTime(time.Since(start))
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
	return foldErr(RunWith(ctx, s, o))
}

// foldErr is the campaign worker's error folding: an error the verdict
// does not already carry becomes its Err.
func foldErr(v Verdict, err error) Verdict {
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

// runLockstepGroup runs one ring's group of ≤ 64 specs as one lane
// block and classifies their verdicts into out, which holds each member's
// prepareRun verdict. If the engine rejects the block or panics mid-run,
// the whole group falls back to scalar runs, which rebuild their dynamics
// and reproduce the verdicts (or the error) independently. Only a group
// that finished on lanes counts as lane work in the telemetry; a
// fallen-back one counts as scalar specs under engine.skip.fallback.
func runLockstepGroup(ctx context.Context, specs []Spec, plans []lanePlan, members []int, o RunOptions, blk *harness.LaneBlock, out []Verdict) {
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

	lanes := make([]harness.Lane, len(members))
	for l, i := range members {
		lanes[l] = harness.Lane{Dynamics: plans[i].dyn, Table: plans[i].table, Placements: placements(o.registry(), specs[i]), Horizon: specs[i].Horizon}
	}
	reps, err := blk.Run(ctx, harness.LaneConfig{Lanes: lanes, Metrics: tel.simMetrics()})
	if err != nil {
		return // scalar fallback reproduces the rejection per spec
	}
	fallback = false

	for l, i := range members {
		s, x, v := specs[i], reps[l], &out[i]
		if x.Rounds < s.Horizon {
			markCancelled(v, s, x.Report, x.Rounds, ctx.Err())
		} else {
			classify(v, s, plans[i].prop, plans[i].confineLimit, x.Report)
		}
	}
}
