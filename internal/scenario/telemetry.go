package scenario

import (
	"sync"
	"time"

	"pef/internal/fsync"
	"pef/internal/harness"
	"pef/internal/telemetry"
)

// Telemetry is the campaign-level instrumentation bundle: one
// telemetry.Registry plus the pre-wired metric groups every layer of the
// stack records into — the harness pool, the fsync engines, the oracle,
// and the lockstep router. A nil *Telemetry disables everything (the
// accessors hand out nil instruments), and nothing recorded here is ever
// read back by the engine, so reports, checkpoints and goldens are
// byte-identical with telemetry on or off.
//
// Metric catalog (see SCENARIOS.md "Observability" for definitions):
//
//	pool.*                    scheduling (harness.PoolMetrics)
//	sim.rounds|acquires|releases          scalar engine
//	sim.lockstep.rounds|laneRounds|acquires|releases  lane engine
//	sim.lockstep.skippedLaneRounds  lane rounds cut by lasso retirement
//	sim.wordFastLanes|wordFallbackLanes   lane E_t by word kernel vs Present
//	oracle.scalarRuns         scalar oracle executions
//	engine.lockstepSpecs|scalarSpecs      per-spec path routing
//	engine.lockstepGroups     lane groups that finished on lanes
//	engine.laneOccupancy      lanes per group (packing efficiency)
//	engine.lassoLanes         adversary lanes retired at their lasso
//	engine.lockstepNanos|lockstepMillis   busy ns / whole ms spent inside lane groups
//	engine.skip.<reason>      why specs left the lockstep path (fallback: group rejected)
//	family.<family>.nanos|millis  scalar-oracle busy ns / whole ms per dynamics family
//	campaign.<generator>.millis  campaign wall ms per generator (CLI-recorded)
//
// The busy-time counters sum time across goroutines: a search block that
// RunBlock fans out runs units concurrently, so they can exceed wall time.
// Each *.millis counter reads the floor of its *.nanos twin, not a sum of
// per-run truncations (see busyTime.add).
type Telemetry struct {
	reg  *telemetry.Registry
	pool *harness.PoolMetrics
	sim  *fsync.Metrics

	scalarRuns     *telemetry.Counter
	lockstepSpecs  *telemetry.Counter
	scalarSpecs    *telemetry.Counter
	lockstepGroups *telemetry.Counter
	lockstepTime   busyTime
	laneOccupancy  *telemetry.Hist

	// mu guards the lazily-built per-name counter caches; lookups after
	// the first per name are one map read, no string concatenation.
	mu          sync.Mutex
	familyTimes map[string]busyTime
	skipReasons map[string]*telemetry.Counter
}

// busyTime is a nanosecond counter and its whole-millisecond twin.
type busyTime struct{ nanos, millis *telemetry.Counter }

// add books d on the nanosecond counter and advances its twin by the
// whole milliseconds the new total crosses, so millis reads ⌊nanos /
// 10⁶⌋ however the time is split into runs and goroutines: three runs of
// 0.999 ms add 2 ms, not the 0 that summing truncated runs would.
func (b busyTime) add(d time.Duration) {
	after := b.nanos.Add(int64(d))
	b.millis.Add(after/1e6 - (after-int64(d))/1e6)
}

// NewTelemetry creates an instrumentation bundle backed by a fresh
// registry.
func NewTelemetry() *Telemetry {
	reg := telemetry.NewRegistry()
	return &Telemetry{
		reg:  reg,
		pool: harness.NewPoolMetrics(reg, "pool"),
		sim: &fsync.Metrics{
			Rounds:             reg.Counter("sim.rounds"),
			Acquires:           reg.Counter("sim.acquires"),
			Releases:           reg.Counter("sim.releases"),
			LockstepRounds:     reg.Counter("sim.lockstep.rounds"),
			LockstepLaneRounds: reg.Counter("sim.lockstep.laneRounds"),
			LassoLanes:         reg.Counter("engine.lassoLanes"),
			SkippedLaneRounds:  reg.Counter("sim.lockstep.skippedLaneRounds"),
			LockstepAcquires:   reg.Counter("sim.lockstep.acquires"),
			LockstepReleases:   reg.Counter("sim.lockstep.releases"),
			WordFastLanes:      reg.Counter("sim.wordFastLanes"),
			WordFallbackLanes:  reg.Counter("sim.wordFallbackLanes"),
		},
		scalarRuns:     reg.Counter("oracle.scalarRuns"),
		lockstepSpecs:  reg.Counter("engine.lockstepSpecs"),
		scalarSpecs:    reg.Counter("engine.scalarSpecs"),
		lockstepGroups: reg.Counter("engine.lockstepGroups"),
		lockstepTime:   busyTime{reg.Counter("engine.lockstepNanos"), reg.Counter("engine.lockstepMillis")},
		laneOccupancy:  reg.Hist("engine.laneOccupancy"),
		familyTimes:    map[string]busyTime{},
		skipReasons:    map[string]*telemetry.Counter{},
	}
}

// addLockstepTime books the busy time of one lane group; nil-safe.
func (t *Telemetry) addLockstepTime(d time.Duration) {
	if t == nil {
		return
	}
	t.lockstepTime.add(d)
}

// Registry exposes the underlying instrument registry (for serving or
// custom instruments). Nil receiver: nil.
func (t *Telemetry) Registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Snapshot copies the current state of every instrument. Nil receiver:
// zero snapshot — safe to serve from an endpoint unconditionally.
func (t *Telemetry) Snapshot() telemetry.Snapshot {
	return t.Registry().Snapshot()
}

// poolMetrics returns the pool instrumentation group; nil-safe.
func (t *Telemetry) poolMetrics() *harness.PoolMetrics {
	if t == nil {
		return nil
	}
	return t.pool
}

// simMetrics returns the fsync instrumentation group; nil-safe.
func (t *Telemetry) simMetrics() *fsync.Metrics {
	if t == nil {
		return nil
	}
	return t.sim
}

// addFamilyTime books the busy time of one scalar-oracle run under its
// dynamics family, with the family's counters cached by name; nil-safe.
func (t *Telemetry) addFamilyTime(family string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c, ok := t.familyTimes[family]
	if !ok {
		c = busyTime{t.reg.Counter("family." + family + ".nanos"), t.reg.Counter("family." + family + ".millis")}
		t.familyTimes[family] = c
	}
	t.mu.Unlock()
	c.add(d)
}

// skipReason returns the counter for one lockstep-ineligibility reason,
// cached per reason; nil-safe.
func (t *Telemetry) skipReason(reason string) *telemetry.Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.skipReasons[reason]
	if !ok {
		c = t.reg.Counter("engine.skip." + reason)
		t.skipReasons[reason] = c
	}
	return c
}
