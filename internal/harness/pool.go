package harness

import (
	"context"
	"iter"
	"runtime"
	"sync"
)

// PoolConfig parameterizes StreamPool and RunPool, the generic indexed
// worker pool behind every batch-style sweep in this repository. The pool
// knows nothing about experiments: jobs are plain indices 0..Total-1 and
// results are any type, so the experiment index, scenario campaigns, and
// future workloads all share one scheduling and determinism engine.
type PoolConfig[R any] struct {
	// Total is the number of jobs, addressed 0..Total-1.
	Total int
	// Workers bounds the worker pool; values < 1 mean GOMAXPROCS.
	Workers int
	// Window bounds the reorder buffer: at most Window jobs are dispatched
	// beyond the in-order emission cursor, so pool memory is O(Window)
	// regardless of Total. Values < 1 mean 8× the worker count. Emission
	// order — and therefore every report — is unaffected by the value.
	Window int
	// Run executes job i on a worker goroutine. It must contain its own
	// panic recovery: the pool does not guess how to turn a panic into an
	// R (see runJob for the experiment-index convention).
	Run func(i int) R
	// Feed, when non-nil, is invoked from the dispatching goroutine in
	// strict index order immediately before job i is handed to a worker.
	// It lets callers materialize job i's input lazily from a sequential
	// stream (e.g. a seeded scenario sampler) while holding only a
	// Window-sized buffer: Feed(i) happens-before Run(i), and slot i is
	// not reused before job i-Window has been emitted.
	Feed func(i int)
	// Placeholder, when non-nil, builds the result slot of a job skipped
	// by cancellation, so it still renders with its identity. It is only
	// invoked for skipped jobs, in ascending index order, after every
	// dispatched job has finished; executed jobs never see it.
	Placeholder func(i int) R
	// Cancelled, when non-nil, rewrites the (placeholder) result of a job
	// that never ran because the context was cancelled.
	Cancelled func(i int, r R, err error) R
	// OnResult, when non-nil, is invoked from the collecting goroutine
	// in strict index order, as soon as every earlier job has finished.
	// Emission order is therefore independent of the worker count. It
	// covers executed jobs only, never cancellation placeholders.
	OnResult func(i int, r R)
	// Metrics, when non-nil, receives scheduling telemetry (dispatch and
	// retire counts, permit waits, in-flight and reorder-depth gauges,
	// per-worker utilization). Recording happens on scheduling edges
	// only, never inside Run, and feeds nothing back into scheduling —
	// emission order and output bytes are identical with or without it.
	Metrics *PoolMetrics
}

// PoolItem is one streamed pool result: the job index, its result, and a
// non-nil Err exactly when the job never ran because the context was
// cancelled (its R is then the Placeholder/Cancelled rewrite).
type PoolItem[R any] struct {
	I   int
	R   R
	Err error
}

// StreamPool fans Total jobs out across a bounded worker pool and yields
// one PoolItem per job in strict index order. Results are collected
// unordered but the yielded sequence is identical for any worker count,
// so streamed output is bit-for-bit reproducible.
//
// Unlike a collect-then-report pool, StreamPool holds O(Window) state: a
// permit scheme stops the dispatcher from running more than Window jobs
// ahead of the emission cursor, and emitted results are dropped
// immediately. Consumers that need the full slice use RunPool.
//
// On cancellation, in-flight jobs finish and are yielded normally; jobs
// that never started are yielded afterwards, still in index order, with
// Err set to the context's error and their R built by Placeholder and
// rewritten by Cancelled. Breaking out of the iteration early cancels the
// remaining work and returns after in-flight jobs drain.
func StreamPool[R any](ctx context.Context, cfg PoolConfig[R]) iter.Seq[PoolItem[R]] {
	return func(yield func(PoolItem[R]) bool) {
		total := cfg.Total
		if total <= 0 {
			return
		}
		workers := cfg.Workers
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > total {
			workers = total
		}
		window := cfg.Window
		if window < 1 {
			window = 8 * workers
		}
		if window < workers {
			window = workers
		}

		inner, cancel := context.WithCancel(ctx)
		defer cancel()

		type indexed struct {
			i int
			r R
		}
		jobs := make(chan int)
		out := make(chan indexed)
		// permits carries the dispatch budget: the dispatcher consumes one
		// token per job and the emitter refunds one per yielded result, so
		// at most window jobs ever sit between dispatch and emission.
		permits := make(chan struct{}, window)
		for i := 0; i < window; i++ {
			permits <- struct{}{}
		}

		// Dispatcher: hands out indices in order, stopping as soon as the
		// context is cancelled. Feed runs here, single-threaded and in
		// index order; the jobs-channel send publishes its effects to the
		// worker running the job.
		m := cfg.Metrics
		go func() {
			defer close(jobs)
			for i := 0; i < total; i++ {
				select {
				case <-permits:
				default:
					// The window is full: emission is the bottleneck right
					// now. Count the stall, then wait as before.
					if m != nil {
						m.PermitWaits.Inc()
					}
					select {
					case <-permits:
					case <-inner.Done():
						return
					}
				}
				// select picks at random among ready cases, so a cancelled
				// context must be checked first, or it could still win a
				// dispatch against Done.
				if inner.Err() != nil {
					return
				}
				if cfg.Feed != nil {
					cfg.Feed(i)
				}
				if inner.Err() != nil {
					return
				}
				select {
				case jobs <- i:
					if m != nil {
						m.Dispatched.Inc()
						m.InFlight.Add(1)
					}
				case <-inner.Done():
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ran := 0
				for i := range jobs {
					r := cfg.Run(i)
					if m != nil {
						m.InFlight.Add(-1)
					}
					ran++
					// The send is unconditional: the emitter drains out
					// until it closes, so even on cancellation a finished
					// job's result is never dropped — "in-flight jobs
					// finish" and their results are yielded.
					out <- indexed{i, r}
				}
				if m != nil {
					m.WorkerJobs.Observe(ran)
				}
			}()
		}
		go func() {
			wg.Wait()
			close(out)
		}()

		// Emitter: a Window-sized reorder ring over the unordered
		// completions. Dispatch is sequential and bounded by the permit
		// scheme, so slot i%window is free by the time job i's result
		// arrives. next is the index-order cursor.
		ring := make([]R, window)
		done := make([]bool, window)
		next := 0
		stopped := false
		parked := 0 // completed results awaiting in-order emission
		for ir := range out {
			ring[ir.i%window] = ir.r
			done[ir.i%window] = true
			parked++
			if m != nil {
				m.ReorderDepth.Set(int64(parked)) // peak lands in the high-water
			}
			for next < total && done[next%window] {
				slot := next % window
				r := ring[slot]
				done[slot] = false
				parked--
				var zero R
				ring[slot] = zero // drop the reference immediately
				if !stopped && !yield(PoolItem[R]{I: next, R: r}) {
					stopped = true
					cancel() // consumer left: stop dispatching, drain below
				}
				if m != nil {
					m.Retired.Inc()
				}
				next++
				permits <- struct{}{}
			}
			if m != nil {
				m.ReorderDepth.Set(int64(parked))
			}
		}
		if stopped {
			return
		}

		// Dispatched jobs all finished and were yielded; anything left
		// never ran. The dispatcher has exited (close(out) orders after
		// it), so Placeholder may safely continue any sequential stream
		// Feed was drawing from.
		if err := ctx.Err(); err != nil {
			for i := next; i < total; i++ {
				var r R
				if cfg.Placeholder != nil {
					r = cfg.Placeholder(i)
				}
				if cfg.Cancelled != nil {
					r = cfg.Cancelled(i, r, err)
				}
				if !yield(PoolItem[R]{I: i, R: r, Err: err}) {
					return
				}
			}
		}
	}
}

// RunPool fans Total jobs out across a bounded worker pool and returns one
// result per job in index order. It is StreamPool collected into a slice:
// results — and the OnResult callback sequence — are identical for any
// worker count, so pool output is bit-for-bit reproducible.
//
// RunPool itself fails only when ctx is cancelled, in which case in-flight
// jobs finish, unstarted jobs carry their Placeholder result (rewritten by
// Cancelled), and the partially-executed slice is returned alongside the
// context error.
func RunPool[R any](ctx context.Context, cfg PoolConfig[R]) ([]R, error) {
	results := make([]R, cfg.Total)
	for item := range StreamPool(ctx, cfg) {
		results[item.I] = item.R
		if item.Err == nil && cfg.OnResult != nil {
			cfg.OnResult(item.I, item.R)
		}
	}
	return results, ctx.Err()
}
