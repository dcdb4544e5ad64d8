package fsync

import (
	"testing"

	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
)

// TestStepIsAllocationFree is the allocation-discipline guard for the
// round engine: after warm-up, Step must not allocate at all — snapshots
// are double-buffered, presence sets are written in place, occupancy uses
// the count slice. Skipped under -race (instrumented allocation counts).
func TestStepIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cases := []struct {
		name string
		g    dyngraph.EvolvingGraph
	}{
		{"static", dyngraph.NewStatic(16)},
		{"bernoulli", dynamics.NewBernoulli(16, 0.5, 7)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := New(Config{
				Algorithm:  core.PEF3Plus,
				Dynamics:   Oblivious{G: c.g},
				Placements: EvenPlacements(16, 3),
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(16) // warm-up: size every scratch buffer
			if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
				t.Fatalf("Step allocates %v objects per round in steady state, want 0", allocs)
			}
		})
	}
}

// TestStepWithCheckersIsAllocationFree extends the guard to the standard
// checker stack of the possibility experiments: the visit tracker reads
// the reused snapshots without copying.
func TestStepWithCheckersIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// Import cycle note: spec imports fsync, so the trackers cannot be used
	// here; an ObserverFunc reading the event covers the observer path, and
	// spec's TestCheckerStackStepAllocFree guards the real checker stack.
	reads := 0
	sim, err := New(Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   Oblivious{G: dyngraph.NewStatic(16)},
		Placements: EvenPlacements(16, 3),
		Observers: []Observer{ObserverFunc(func(ev *RoundEvent) {
			for _, p := range ev.After.Positions {
				reads += p
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(16)
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Fatalf("observed Step allocates %v objects per round, want 0", allocs)
	}
}

// TestAcquireReusesSimulators checks the pooling contract: a released
// simulator's backing slices serve the next acquisition of the same shape
// without reallocation of the round scratch.
func TestAcquireReusesSimulators(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := Config{
		Algorithm:  core.PEF3Plus,
		Dynamics:   Oblivious{G: dyngraph.NewStatic(8)},
		Placements: EvenPlacements(8, 3),
	}
	// Warm the pool.
	for i := 0; i < 4; i++ {
		sim, err := Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(8)
		sim.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		sim, err := Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(8)
		sim.Release()
	})
	// Per-run allocations must be the O(k) core construction only, never
	// O(horizon): three robot cores plus interface boxing.
	if allocs > 8 {
		t.Fatalf("pooled acquire+run allocates %v objects, want <= 8", allocs)
	}
}
