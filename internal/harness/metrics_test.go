package harness

import (
	"context"
	"testing"

	"pef/internal/telemetry"
)

// TestPoolMetricsAccounting runs an instrumented pool and checks the
// deterministic invariants: every job is dispatched and retired exactly
// once, the in-flight gauge drains to zero with a plausible high-water,
// and per-worker job counts sum to the total.
func TestPoolMetricsAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	pm := NewPoolMetrics(reg, "pool")
	const total, workers = 97, 4
	var results []int
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total:   total,
		Workers: workers,
		Metrics: pm,
		Run:     func(i int) int { return i * i },
	}) {
		results = append(results, item.R)
	}
	if len(results) != total || results[10] != 100 {
		t.Fatalf("results corrupted: len %d", len(results))
	}
	if got := pm.Dispatched.Value(); got != total {
		t.Fatalf("dispatched = %d, want %d", got, total)
	}
	if got := pm.Retired.Value(); got != total {
		t.Fatalf("retired = %d, want %d", got, total)
	}
	if got := pm.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight did not drain: %d", got)
	}
	if hi := pm.InFlight.High(); hi < 1 {
		t.Fatalf("in-flight high-water = %d, want >= 1", hi)
	}
	wj := pm.WorkerJobs.Value()
	if wj.Count < 1 || wj.Count > workers {
		t.Fatalf("worker-jobs observations = %d, want 1..%d", wj.Count, workers)
	}
	sum := 0
	for _, cell := range wj.Cells {
		sum += cell.Value * cell.Count
	}
	if sum != total {
		t.Fatalf("per-worker job counts sum to %d, want %d", sum, total)
	}
	if pm.ReorderDepth.High() < 0 || pm.ReorderDepth.Value() != 0 {
		t.Fatalf("reorder depth did not drain: %d", pm.ReorderDepth.Value())
	}
}

// TestPoolMetricsNilSafe pins that a nil PoolMetrics (telemetry off) and
// a nil registry cost nothing and change nothing.
func TestPoolMetricsNilSafe(t *testing.T) {
	if NewPoolMetrics(nil, "pool") != nil {
		t.Fatal("nil registry must yield nil metrics")
	}
	n := 0
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total: 10,
		Run:   func(i int) int { return i },
	}) {
		if item.Err != nil || item.R != n {
			t.Fatalf("uninstrumented pool broke at %d: %v, result %d", n, item.Err, item.R)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("uninstrumented pool yielded %d of 10 results", n)
	}
}

// TestPoolMetricsByteInvisible checks the core telemetry bar at the pool
// level: the emitted result order (and so every report built from it) is
// identical with metrics wired and without.
func TestPoolMetricsByteInvisible(t *testing.T) {
	run := func(pm *PoolMetrics) []int {
		var order []int
		for item := range StreamPool(context.Background(), PoolConfig[int]{
			Total:   50,
			Workers: 7,
			Metrics: pm,
			Run:     func(i int) int { return i * 3 },
		}) {
			order = append(order, item.I, item.R)
		}
		return order
	}
	plain := run(nil)
	instrumented := run(NewPoolMetrics(telemetry.NewRegistry(), "pool"))
	if len(plain) != len(instrumented) {
		t.Fatalf("length mismatch: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("emission diverged at %d: %d vs %d", i, plain[i], instrumented[i])
		}
	}
}
