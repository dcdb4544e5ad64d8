package harness

import (
	"context"
	"fmt"
	"testing"

	"pef/internal/prng"
)

// poolBenchJob is one deterministic CPU-bound unit of pool work. Costs
// vary by a factor of three across indices so the reorder machinery is
// actually exercised: with uniform costs the emission cursor never falls
// behind and any window looks perfect.
func poolBenchJob(i int) uint64 {
	rounds := 2000 + 2000*(i%3)
	h := uint64(i) + 1
	for r := 0; r < rounds; r++ {
		h = prng.Hash3(h, uint64(i), uint64(r))
	}
	return h
}

// benchPool runs one full StreamPool sweep and folds the results so the
// work cannot be optimized away.
func benchPool(b *testing.B, jobs, workers, window int) {
	b.Helper()
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for item := range StreamPool(context.Background(), PoolConfig[uint64]{
			Total:   jobs,
			Workers: workers,
			Window:  window,
			Run:     poolBenchJob,
		}) {
			sink ^= item.R
		}
	}
	if sink == 0x5EED {
		b.Log(sink) // keep the fold observable
	}
}

// BenchmarkPoolScaling measures the worker pool along the two axes its
// defaults were chosen on. The workers axis is the multi-core scaling
// curve of a CPU-bound sweep (flat on single-CPU runners, approaching
// linear on real cores), against the serial loop that runs the same
// jobs without a pool. On a 2-CPU host two workers reach 1.92× of the
// loop and four and eight about 1.95×: workers claim their own jobs, so
// a job's only handoff is its result reaching the caller (SCENARIOS.md
// "Pool scaling, measured"). The window axis times StreamPool's reorder
// window at 1×, 2×, 8× (the default) and 32× the workers. A narrow
// window could hold claims behind the slowest in-flight job
// (head-of-line blocking in the reorder ring), but medians of five runs
// on a 2-CPU host lie within 4% of each other from 1× to 32×. Widening
// past 8× only grows the ring's memory footprint.
func BenchmarkPoolScaling(b *testing.B) {
	const jobs = 256
	// serial runs the same jobs in a plain loop, with no pool: the floor
	// that the workers=1 point pays claims and reordering on top of.
	b.Run("serial", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			for j := 0; j < jobs; j++ {
				sink ^= poolBenchJob(j)
			}
		}
		if sink == 0x5EED {
			b.Log(sink)
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchPool(b, jobs, workers, 0) // default window: 8×workers
		})
	}
	for _, mult := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("window=%dx", mult), func(b *testing.B) {
			const workers = 4
			benchPool(b, jobs, workers, mult*workers)
		})
	}
}
