package harness

import (
	"context"
	"fmt"
	"runtime"
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
// the dispatcher never runs more than Window jobs ahead of the emission
// cursor, even when the head job stalls arbitrarily long.
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
	// may ever be fed. Wait for the dispatcher to go as far as it can.
	for dispatched.Load() < window {
		runtime.Gosched()
	}
	if d := dispatched.Load(); d > window {
		t.Fatalf("dispatcher ran %d jobs ahead of a stalled cursor (window %d)", d, window)
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

// TestStreamPoolPreCancelledDispatchesNothing pins the dispatcher's
// cancellation check: under a context cancelled before the pool starts, no
// job is fed or run, and every job yields as cancelled. The dispatcher's
// select chooses at random among ready cases, so the test repeats the run
// to catch a dispatch that races Done.
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
// cancellation, finished jobs yield normally and unstarted jobs yield in
// order with Err set and the Placeholder/Cancelled rewrites applied.
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
		Placeholder: func(i int) string { return fmt.Sprintf("skip-%d", i) },
		Cancelled:   func(i int, r string, err error) string { return r + ":" + err.Error() },
	}) {
		if item.I != items {
			t.Fatalf("yield order broken: got %d at position %d", item.I, items)
		}
		items++
		if item.Err != nil {
			sawErr = true
			if want := fmt.Sprintf("skip-%d:%v", item.I, context.Canceled); item.R != want {
				t.Fatalf("cancelled item %d = %q, want %q", item.I, item.R, want)
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

// TestRunPoolMatchesStreamPool checks RunPool is exactly the collected
// stream: same results, same OnResult prefix.
func TestRunPoolMatchesStreamPool(t *testing.T) {
	cfg := func() PoolConfig[int] {
		return PoolConfig[int]{
			Total:   64,
			Workers: 4,
			Run:     func(i int) int { return 7 * i },
		}
	}
	var streamed []int
	for item := range StreamPool(context.Background(), cfg()) {
		streamed = append(streamed, item.R)
	}
	var onResult []int
	c := cfg()
	c.OnResult = func(i, r int) { onResult = append(onResult, r) }
	collected, err := RunPool(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range collected {
		if collected[i] != streamed[i] || onResult[i] != streamed[i] {
			t.Fatalf("divergence at %d: collected=%d onResult=%d streamed=%d",
				i, collected[i], onResult[i], streamed[i])
		}
	}
}
