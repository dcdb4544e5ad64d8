package harness

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamPoolYieldsInOrder checks the core streaming contract: every
// index 0..Total-1 is yielded exactly once, in ascending order, for any
// worker count.
func TestStreamPoolYieldsInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var got []int
		for item := range StreamPool(context.Background(), PoolConfig[int]{
			Total:   50,
			Workers: workers,
			Run:     func(i int) int { return i * i },
		}) {
			if item.Err != nil {
				t.Fatalf("workers=%d: unexpected item error: %v", workers, item.Err)
			}
			if item.R != item.I*item.I {
				t.Fatalf("workers=%d: item %d carries result %d", workers, item.I, item.R)
			}
			got = append(got, item.I)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: yielded %d items", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: out-of-order yield at %d: %v", workers, i, got)
			}
		}
	}
}

// TestStreamPoolWindowBoundsDispatch pins the O(Window) memory contract:
// workers never claim more than Window jobs ahead of the emission cursor,
// even when the head job stalls arbitrarily long.
func TestStreamPoolWindowBoundsDispatch(t *testing.T) {
	const window = 4
	release := make(chan struct{})
	var dispatched atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for item := range StreamPool(context.Background(), PoolConfig[int]{
			Total:   100,
			Workers: 2,
			Window:  window,
			Feed:    func(i int) { dispatched.Store(int64(i + 1)) },
			Run: func(i int) int {
				if i == 0 {
					<-release // stall the head: nothing can be emitted
				}
				return i
			},
		}) {
			_ = item
		}
	}()
	// With index 0 stalled the cursor stays at 0, so at most window jobs
	// may ever be fed. Wait for the workers to claim as far as they can.
	for dispatched.Load() < window {
		runtime.Gosched()
	}
	if d := dispatched.Load(); d > window {
		t.Fatalf("workers claimed %d jobs ahead of a stalled cursor (window %d)", d, window)
	}
	close(release)
	<-done
	if d := dispatched.Load(); d != 100 {
		t.Fatalf("dispatched %d of 100 jobs", d)
	}
}

// TestStreamPoolFeedHappensBeforeRun checks the lazy-input contract:
// Feed(i) runs in index order and its effects are visible to Run(i), with
// slot reuse only after the prior occupant was emitted.
func TestStreamPoolFeedHappensBeforeRun(t *testing.T) {
	const total, window = 200, 8
	ring := make([]int, window)
	feedOrder := make([]int, 0, total)
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total:   total,
		Workers: 4,
		Window:  window,
		Feed: func(i int) {
			feedOrder = append(feedOrder, i)
			ring[i%window] = 3*i + 1
		},
		Run: func(i int) int { return ring[i%window] },
	}) {
		if item.R != 3*item.I+1 {
			t.Fatalf("job %d read a reused slot: got %d", item.I, item.R)
		}
	}
	for i, v := range feedOrder {
		if v != i {
			t.Fatalf("feed order broken at %d: %v", i, feedOrder[:i+1])
		}
	}
}

// TestStreamPoolPreCancelledDispatchesNothing pins the workers'
// cancellation check: under a context cancelled before the pool starts, no
// job is claimed, fed or run, and every job yields as cancelled. The test
// repeats the run to catch a claim that races the cancellation.
func TestStreamPoolPreCancelledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 200; rep++ {
		var fed, ran atomic.Int64
		items := 0
		for item := range StreamPool(ctx, PoolConfig[int]{
			Total:   16,
			Workers: 2,
			Window:  8,
			Feed:    func(int) { fed.Add(1) },
			Run:     func(i int) int { ran.Add(1); return i },
		}) {
			if item.Err == nil {
				t.Fatalf("rep %d: job %d yielded without the cancellation error", rep, item.I)
			}
			items++
		}
		if items != 16 {
			t.Fatalf("rep %d: yielded %d of 16 jobs", rep, items)
		}
		if f, r := fed.Load(), ran.Load(); f != 0 || r != 0 {
			t.Fatalf("rep %d: pre-cancelled pool fed %d and ran %d jobs, want 0", rep, f, r)
		}
	}
}

// TestStreamPoolCancellation checks the tail contract: after
// cancellation, finished jobs yield normally and unclaimed jobs yield in
// order with Err set and a zero R.
func TestStreamPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ran := map[int]bool{}
	items := 0
	sawErr := false
	for item := range StreamPool(ctx, PoolConfig[string]{
		Total:   40,
		Workers: 2,
		Window:  4,
		Run: func(i int) string {
			if i == 5 {
				cancel()
			}
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			return fmt.Sprintf("ran-%d", i)
		},
	}) {
		if item.I != items {
			t.Fatalf("yield order broken: got %d at position %d", item.I, items)
		}
		items++
		if item.Err != nil {
			sawErr = true
			if item.Err != context.Canceled || item.R != "" {
				t.Fatalf("cancelled item %d = (%q, %v), want a zero result and %v", item.I, item.R, item.Err, context.Canceled)
			}
			mu.Lock()
			didRun := ran[item.I]
			mu.Unlock()
			if didRun {
				t.Fatalf("item %d both ran and was marked cancelled", item.I)
			}
		} else if item.R != fmt.Sprintf("ran-%d", item.I) {
			t.Fatalf("executed item %d = %q", item.I, item.R)
		}
	}
	if items != 40 {
		t.Fatalf("yielded %d of 40 items", items)
	}
	if !sawErr {
		t.Fatal("cancellation produced no skipped items")
	}
}

// TestStreamPoolEarlyBreak checks that abandoning the iterator cancels
// remaining work instead of leaking the pool goroutines.
func TestStreamPoolEarlyBreak(t *testing.T) {
	var ran atomic.Int64
	seen := 0
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total:   10000,
		Workers: 2,
		Window:  4,
		Run: func(i int) int {
			ran.Add(1)
			return i
		},
	}) {
		_ = item
		seen++
		if seen == 10 {
			break
		}
	}
	// The pool drained before the range returned: nothing beyond the
	// window can run afterwards.
	after := ran.Load()
	if after >= 10000 {
		t.Fatalf("early break still ran all jobs")
	}
	if after < 10 {
		t.Fatalf("ran %d jobs, yielded 10", after)
	}
}

// TestStreamPoolEarlyBreakDrainsInFlight pins the graceful-shutdown
// contract the CLIs lean on: breaking the consumer loop at a yield
// boundary not only cancels undispatched work, it *waits* for every
// in-flight job to run to completion before the range statement
// returns — so an interrupted campaign's aggregate covers a clean
// prefix with no half-torn runs behind it.
func TestStreamPoolEarlyBreakDrainsInFlight(t *testing.T) {
	var started, finished atomic.Int64
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total:   1000,
		Workers: 4,
		Window:  8,
		Run: func(i int) int {
			started.Add(1)
			time.Sleep(2 * time.Millisecond)
			finished.Add(1)
			return i
		},
	}) {
		if item.I == 5 {
			break
		}
	}
	// The break has returned: the pool goroutines are gone, so the two
	// counters must agree *now*, not eventually.
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("early break abandoned in-flight jobs: started=%d finished=%d", s, f)
	}
}

// TestStreamPoolCollectsInOrder checks that a plain collect loop over
// the stream rebuilds the same slice for any worker count: every index
// lands once, in ascending order, carrying its own result.
func TestStreamPoolCollectsInOrder(t *testing.T) {
	collect := func(workers int) []int {
		results := make([]int, 64)
		next := 0
		for item := range StreamPool(context.Background(), PoolConfig[int]{
			Total:   64,
			Workers: workers,
			Run:     func(i int) int { return 7 * i },
		}) {
			if item.I != next || item.Err != nil {
				t.Fatalf("workers=%d: item %d (err %v) at position %d", workers, item.I, item.Err, next)
			}
			results[item.I] = item.R
			next++
		}
		return results
	}
	serial := collect(1)
	for i, r := range serial {
		if r != 7*i {
			t.Fatalf("collected[%d] = %d, want %d", i, r, 7*i)
		}
	}
	if parallel := collect(4); !slices.Equal(parallel, serial) {
		t.Fatalf("collected slices differ:\n1 worker  %v\n4 workers %v", serial, parallel)
	}
}

// TestStreamPoolFeedWaitsForYield pins the slot-reuse contract campaigns
// rely on when Feed refills spec-ring slot i%Window: Feed(i) starts only
// after yield for job i-Window has returned, Feed calls arrive in strictly
// ascending order, and no two Feed calls overlap. Jobs and the consumer
// take varying time so that workers race ahead of the cursor; a pool that
// refunded a slot before its yield returned would feed into a slot the
// consumer still holds.
func TestStreamPoolFeedWaitsForYield(t *testing.T) {
	const total, window = 300, 4
	var (
		yielded  [total]atomic.Bool
		feeding  atomic.Int32
		lastFed  = -1
		failures []string
	)
	ring := make([]int, window)
	spin := func(n int) {
		for end := time.Now().Add(time.Duration(n) * 20 * time.Microsecond); time.Now().Before(end); {
		}
	}
	for item := range StreamPool(context.Background(), PoolConfig[int]{
		Total:   total,
		Workers: 8,
		Window:  window,
		Feed: func(i int) {
			if feeding.Add(1) != 1 {
				failures = append(failures, fmt.Sprintf("Feed(%d) overlaps another Feed", i))
			}
			if i != lastFed+1 {
				failures = append(failures, fmt.Sprintf("Feed(%d) after Feed(%d)", i, lastFed))
			}
			lastFed = i
			if i >= window && !yielded[i-window].Load() {
				failures = append(failures, fmt.Sprintf("Feed(%d) before yield of %d returned", i, i-window))
			}
			ring[i%window] = i
			spin(i % 2)
			feeding.Add(-1)
		},
		Run: func(i int) int {
			spin(i % 5)
			return ring[i%window]
		},
	}) {
		if item.R != item.I {
			t.Fatalf("job %d read slot contents %d", item.I, item.R)
		}
		spin(item.I % 3)
		yielded[item.I].Store(true)
	}
	if lastFed != total-1 {
		t.Fatalf("fed up to %d of %d jobs", lastFed, total)
	}
	if len(failures) > 0 {
		t.Fatalf("%d contract violations, first: %s", len(failures), failures[0])
	}
}
