package harness

import (
	"context"
	"iter"
	"runtime"
	"sync"
)

// PoolConfig parameterizes StreamPool, the generic indexed worker pool
// behind every batch-style sweep in this repository. The pool knows
// nothing about experiments: jobs are plain indices 0..Total-1 and results
// are any type, so the experiment index, scenario campaigns, and future
// workloads all share one scheduling and determinism engine.
type PoolConfig[R any] struct {
	// Total is the number of jobs, addressed 0..Total-1.
	Total int
	// Workers bounds the worker pool; values < 1 mean GOMAXPROCS.
	Workers int
	// Window bounds the reorder buffer: a worker claims job i only while
	// i is less than Window past the in-order emission cursor, so pool
	// memory is O(Window) regardless of Total. Values < 1 mean 8× the
	// worker count. Emission order — and therefore every report — is
	// unaffected by the value.
	Window int
	// Run executes job i on a worker goroutine. It must contain its own
	// panic recovery: the pool does not guess how to turn a panic into an
	// R (see runJob for the experiment-index convention).
	Run func(i int) R
	// Feed, when non-nil, is invoked by the worker that claims job i,
	// right before it runs Run(i). Feed calls never overlap and arrive in
	// strict index order, so callers may materialize job i's input lazily
	// from a sequential stream (e.g. a seeded scenario sampler) while
	// holding only a Window-sized buffer: Feed(i) happens-before Run(i),
	// and Feed(i) starts only after the yield of job i-Window returned, so
	// slot i%Window is free for reuse. A fed job always runs.
	Feed func(i int)
	// Metrics, when non-nil, receives scheduling telemetry (claim and
	// retire counts, window waits, in-flight and reorder-depth gauges,
	// per-worker utilization). Recording happens on scheduling edges
	// only, never inside Run, and feeds nothing back into scheduling —
	// emission order and output bytes are identical with or without it.
	Metrics *PoolMetrics
}

// PoolItem is one streamed pool result: the job index, its result, and a
// non-nil Err exactly when the job never ran because the context was
// cancelled (its R is then the zero value).
type PoolItem[R any] struct {
	I   int
	R   R
	Err error
}

// StreamPool fans Total jobs out across a bounded worker pool and yields
// one PoolItem per job in strict index order. Results complete unordered
// but the yielded sequence is identical for any worker count, so
// streamed output is bit-for-bit reproducible.
//
// Workers claim the next index themselves under one mutex, at most Window
// past the emission cursor, and park each result in a Window-sized
// reorder ring; the calling goroutine yields the ring in index order and
// refunds a window slot only once yield for it has returned. Every job
// thus takes one handoff, from its worker to the caller, and the pool
// holds O(Window) state with no goroutine besides its workers.
//
// On cancellation, in-flight jobs finish and are yielded normally; jobs
// that were never claimed are yielded afterwards, still in index order,
// with Err set to the context's error and a zero R. Breaking out of the
// iteration early cancels the remaining work and returns after in-flight
// jobs drain.
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

		inner, cancel := context.WithCancel(ctx)
		defer cancel()

		// mu guards everything below. Workers wait on room for the cursor
		// to advance; the caller waits on ready for the head job's result
		// or for the last worker to exit.
		var mu sync.Mutex
		room := sync.NewCond(&mu)
		ready := sync.NewCond(&mu)
		ring := make([]R, window)
		done := make([]bool, window)
		claimed := 0 // next index to claim
		next := 0    // emission cursor: jobs below it were yielded
		live := workers
		parked := 0 // completed results awaiting in-order emission
		m := cfg.Metrics

		for w := 0; w < workers; w++ {
			go func() {
				ran := 0
				mu.Lock()
				for {
					// A full window means emission is the bottleneck right
					// now: wait for the caller to refund a slot.
					waited := false
					for claimed < total && claimed-next >= window && inner.Err() == nil {
						waited = true
						room.Wait()
					}
					if claimed == total || inner.Err() != nil {
						break
					}
					i := claimed
					claimed++
					// Feed runs under mu on purpose: the lock is what keeps
					// Feed calls in claim order and never overlapping.
					if cfg.Feed != nil {
						cfg.Feed(i)
					}
					if m != nil {
						if waited {
							m.PermitWaits.Inc()
						}
						m.Dispatched.Inc()
						m.InFlight.Add(1)
					}
					mu.Unlock()
					r := cfg.Run(i)
					mu.Lock()
					if m != nil {
						m.InFlight.Add(-1)
					}
					ran++
					// The claim window keeps i within window of the cursor,
					// so slot i%window is free.
					ring[i%window] = r
					done[i%window] = true
					parked++
					if m != nil {
						m.ReorderDepth.Set(int64(parked)) // peak lands in the high-water
					}
					if i == next {
						// Signal queues the caller behind this worker on its
						// P, where it would wait out the next job; hand the P
						// over, since only the caller can refund window slots.
						ready.Signal()
						mu.Unlock()
						runtime.Gosched()
						mu.Lock()
					}
				}
				if m != nil {
					m.WorkerJobs.Observe(ran)
				}
				live--
				if live == 0 {
					ready.Signal()
				}
				mu.Unlock()
			}()
		}

		// The caller's goroutine yields the ring in index order. A worker
		// exits only when nothing is left to claim or the context is
		// cancelled, and every claimed job parks its result first, so once
		// live is zero a missing head result means the job never ran.
		stopped := false
		mu.Lock()
		for next < total {
			slot := next % window
			for !done[slot] && live > 0 {
				ready.Wait()
			}
			if !done[slot] {
				break
			}
			r := ring[slot]
			var zero R
			ring[slot] = zero // drop the reference immediately
			done[slot] = false
			parked--
			if m != nil {
				m.ReorderDepth.Set(int64(parked))
			}
			mu.Unlock()
			if !stopped && !yield(PoolItem[R]{I: next, R: r}) {
				stopped = true
				cancel() // consumer left: stop claiming, drain below
			}
			if m != nil {
				m.Retired.Inc()
			}
			mu.Lock()
			// Refund the slot only now: Feed may reuse it for job
			// next+window as soon as the cursor moves.
			next++
			room.Broadcast()
		}
		for live > 0 { // the pool returns only after its workers have exited
			ready.Wait()
		}
		mu.Unlock()
		if stopped {
			return
		}

		// Every claimed job finished and was yielded; anything left was
		// never claimed, hence never fed or run.
		if err := ctx.Err(); err != nil {
			for i := next; i < total; i++ {
				if !yield(PoolItem[R]{I: i, Err: err}) {
					return
				}
			}
		}
	}
}
