package scenario

import (
	"sync"

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
//	sim.wordFastLanes|wordFallbackLanes   lane E_t by word kernel vs Present
//	oracle.scalarRuns         scalar oracle executions
//	engine.lockstepSpecs|scalarSpecs      per-spec path routing
//	engine.lockstepGroups     lane groups that finished on lanes
//	engine.laneOccupancy      lanes per group (packing efficiency)
//	engine.lockstepMillis     busy ms spent inside lane groups
//	engine.skip.<reason>      why specs left the lockstep path (fallback: group rejected)
//	family.<family>.millis    scalar-oracle busy ms per dynamics family
//	campaign.<generator>.millis  campaign wall ms per generator (CLI-recorded)
//
// engine.lockstepMillis and family.<family>.millis sum time across
// goroutines: a search block that RunBlock fans out runs units
// concurrently, so they can exceed wall time.
type Telemetry struct {
	reg  *telemetry.Registry
	pool *harness.PoolMetrics
	sim  *fsync.Metrics

	scalarRuns     *telemetry.Counter
	lockstepSpecs  *telemetry.Counter
	scalarSpecs    *telemetry.Counter
	lockstepGroups *telemetry.Counter
	lockstepMillis *telemetry.Counter
	laneOccupancy  *telemetry.Hist

	// mu guards the lazily-built per-name counter caches; lookups after
	// the first per name are one map read, no string concatenation.
	mu           sync.Mutex
	familyMillis map[string]*telemetry.Counter
	skipReasons  map[string]*telemetry.Counter
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
			LockstepAcquires:   reg.Counter("sim.lockstep.acquires"),
			LockstepReleases:   reg.Counter("sim.lockstep.releases"),
			WordFastLanes:      reg.Counter("sim.wordFastLanes"),
			WordFallbackLanes:  reg.Counter("sim.wordFallbackLanes"),
		},
		scalarRuns:     reg.Counter("oracle.scalarRuns"),
		lockstepSpecs:  reg.Counter("engine.lockstepSpecs"),
		scalarSpecs:    reg.Counter("engine.scalarSpecs"),
		lockstepGroups: reg.Counter("engine.lockstepGroups"),
		lockstepMillis: reg.Counter("engine.lockstepMillis"),
		laneOccupancy:  reg.Hist("engine.laneOccupancy"),
		familyMillis:   map[string]*telemetry.Counter{},
		skipReasons:    map[string]*telemetry.Counter{},
	}
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

// famMillis returns the per-family scalar-oracle wall-time counter,
// cached per family name; nil-safe.
func (t *Telemetry) famMillis(family string) *telemetry.Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.familyMillis[family]
	if !ok {
		c = t.reg.Counter("family." + family + ".millis")
		t.familyMillis[family] = c
	}
	return c
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
