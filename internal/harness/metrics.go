package harness

import "pef/internal/telemetry"

// PoolMetrics instruments StreamPool. Every field is a nilable telemetry
// instrument and a nil *PoolMetrics disables the group, so unwired pools
// pay one branch per job. The pool records around the scheduling edges
// (claim, completion, emission) — never inside Run — and nothing it
// records feeds back into scheduling, so wiring metrics cannot change
// emission order or any output byte.
type PoolMetrics struct {
	// Dispatched counts jobs claimed by workers; Retired counts jobs
	// emitted in index order. Dispatched-Retired is the live pipeline
	// depth.
	Dispatched *telemetry.Counter
	Retired    *telemetry.Counter
	// PermitWaits counts claims that blocked on the reorder window: a
	// worker wanted the next job but it lay Window or more past the
	// emission cursor. A high rate relative to Dispatched means emission
	// (a slow consumer or one straggler job) is the bottleneck, not the
	// workers.
	PermitWaits *telemetry.Counter
	// InFlight gauges jobs currently claimed but not yet completed
	// (high-water = peak concurrency actually reached). ReorderDepth
	// gauges completed-but-unemitted results parked in the reorder ring
	// (high-water = worst out-of-order burst).
	InFlight     *telemetry.Gauge
	ReorderDepth *telemetry.Gauge
	// WorkerJobs is the per-worker job-count distribution, one observation
	// per worker goroutine at pool shutdown — the utilization-balance
	// signal (a wide spread means stragglers pinned some workers).
	WorkerJobs *telemetry.Hist
}

// NewPoolMetrics wires a PoolMetrics group onto reg under the given name
// prefix (e.g. "pool"). Nil registry: nil metrics (telemetry off).
func NewPoolMetrics(reg *telemetry.Registry, prefix string) *PoolMetrics {
	if reg == nil {
		return nil
	}
	return &PoolMetrics{
		Dispatched:   reg.Counter(prefix + ".dispatched"),
		Retired:      reg.Counter(prefix + ".retired"),
		PermitWaits:  reg.Counter(prefix + ".permitWaits"),
		InFlight:     reg.Gauge(prefix + ".inFlight"),
		ReorderDepth: reg.Gauge(prefix + ".reorderDepth"),
		WorkerJobs:   reg.Hist(prefix + ".workerJobs"),
	}
}
