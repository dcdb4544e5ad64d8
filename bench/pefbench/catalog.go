package main

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names with their direction and regression bounds; the smoke test
// keeps the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the system sees, measured on the
// untraced pass. The latencies are percentiles over the requests of all
// of a pass's iterations: one generation in search, one HTTP request
// (either endpoint) in serve-sliding, and the whole batch in paper-sweep
// and the campaign workloads, whose users wait for the report.
var e2eMetrics = []metricDef{
	{"throughput_sps", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// layerMetrics are per-layer numbers from the traced pass. Metrics of a
// layer a workload does not exercise read 0 there.
var layerMetrics = []metricDef{
	{"scenario.engine.ms", "ms"},
	{"scenario.engine.lockstep_ms", "ms"},
	{"scenario.oracle.scalar_ms", "ms"},
	{"scenario.oracle.scalar_runs", "count"},
	{"scenario.generate.ms", "ms"},
	{"scenario.aggregate.ms", "ms"},
	{"fsync.lane_rounds", "count"},
	{"fsync.ns_per_lane_round", "ns"},
	{"fsync.rounds", "count"},
	{"fsync.ns_per_round", "ns"},
	{"dyngraph.word_fast_share", "ratio"},
	{"harness.pool.jobs", "count"},
	{"harness.pool.busy_ratio", "ratio"},
	{"harness.pool.tail_idle_ms", "ms"},
	{"harness.pool.permit_waits", "count"},
	{"harness.experiments.jobs", "count"},
	{"harness.experiments.t1_ms", "ms"},
	{"harness.experiments.figures_ms", "ms"},
	{"harness.experiments.extensions_ms", "ms"},
	{"serve.campaign_ms.p50", "ms"},
	{"serve.campaign_ms.p90", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.p99", "ms"},
	{"serve.handler_ms.p50", "ms"},
	{"serve.transport_ms.p50", "ms"},
	{"serve.verdict_bytes", "B"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.coalesced", "count"},
	{"serve.cache.evictions", "count"},
	{"serve.cache.bytes", "B"},
	{"search.generation_ms.p50", "ms"},
	{"search.plan_ms", "ms"},
	{"search.corpus_size", "count"},
	{"search.samples", "count"},
	{"process.allocs_per_spec", "count"},
	{"process.gc_cpu_fraction", "ratio"},
	{"process.heap_peak_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
}

// servePercentiles are serve-sliding's per-endpoint client latencies,
// computed from the pooled request samples of a pass.
var servePercentiles = []struct {
	name, sample string
	p            float64
}{
	{"serve.campaign_ms.p50", "campaign_ms", 50},
	{"serve.campaign_ms.p90", "campaign_ms", 90},
	{"serve.run_ms.p50", "run_ms", 50},
	{"serve.run_ms.p99", "run_ms", 99},
}
