package fsync

import "pef/internal/telemetry"

// Metrics collects the engine-level counters for both simulators. Every
// field is a nilable telemetry.Counter, and a nil *Metrics disables the
// whole group, so an unwired engine pays one branch per run.
//
// The hot loops never touch these atomics: simulators accumulate plain
// ints as they step and flush once per run at Release, which keeps Step
// at 0 allocs/op and free of cross-worker cache-line contention.
type Metrics struct {
	// Rounds counts scalar simulator rounds executed.
	Rounds *telemetry.Counter
	// LassoRuns counts scalar runs retired at their lasso, before their
	// horizon, and SkippedRounds the rounds they skipped (see
	// Simulator.Lasso): Rounds plus SkippedRounds is the round volume of
	// the horizons.
	LassoRuns     *telemetry.Counter
	SkippedRounds *telemetry.Counter
	// Acquires / Releases count scalar pool traffic.
	Acquires *telemetry.Counter
	Releases *telemetry.Counter

	// LockstepRounds counts lane-engine word steps (one per Step call);
	// LockstepLaneRounds counts lane·round work (active lanes summed over
	// steps) — the scalar-equivalent round volume.
	LockstepRounds     *telemetry.Counter
	LockstepLaneRounds *telemetry.Counter
	// LassoLanes counts adversary lanes retired at their lasso, before
	// their horizon, and SkippedLaneRounds the rounds they skipped (see
	// LockstepSimulator.Lasso): LockstepLaneRounds plus SkippedLaneRounds
	// is the lane·round volume of the horizons.
	LassoLanes        *telemetry.Counter
	SkippedLaneRounds *telemetry.Counter
	// LockstepAcquires / LockstepReleases count lane-engine pool traffic.
	LockstepAcquires *telemetry.Counter
	LockstepReleases *telemetry.Counter

	// WordFastLanes counts lane-instants materialized by a word kernel:
	// their graph's own E_t kernel (dyngraph.InPlaceGraph) or the block's
	// LaneAdversary, which runs no per-lane Present. WordFallbackLanes
	// counts those that fell back to testing every edge with Present.
	WordFastLanes     *telemetry.Counter
	WordFallbackLanes *telemetry.Counter
}
