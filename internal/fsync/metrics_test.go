package fsync

import (
	"testing"

	"pef/internal/core"
	"pef/internal/dyngraph"
	"pef/internal/robot"
	"pef/internal/telemetry"
)

// TestRoundEventOrderingAcrossPooledAndResetSimulators pins the observer
// contract under simulator reuse: events arrive strictly in round order
// (T = 0, 1, 2, …), and both an in-place Reset and a Release/Acquire
// cycle through the pool restart the sequence at zero — reuse never
// leaks a previous run's clock into the next run's events.
func TestRoundEventOrderingAcrossPooledAndResetSimulators(t *testing.T) {
	var order []int
	cfg := Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
		Observers: []Observer{ObserverFunc(func(ev *RoundEvent) {
			order = append(order, ev.T)
		})},
	}
	wantSeq := func(n int) {
		t.Helper()
		if len(order) != n {
			t.Fatalf("observed %d rounds, want %d: %v", len(order), n, order)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("round %d observed out of order as T=%d (%v)", i, got, order)
			}
		}
	}

	sim, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6)
	wantSeq(6)

	// In-place Reset: the round clock — and thus the event sequence —
	// restarts at zero.
	order = order[:0]
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	sim.Run(4)
	wantSeq(4)
	sim.Release()

	// Pool round trip: a re-acquired (likely recycled) simulator starts a
	// fresh sequence too.
	order = order[:0]
	again, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again.Run(3)
	wantSeq(3)
	again.Release()
}

// TestMetricsFlushPerRun pins the recording discipline: simulators
// accumulate plain ints on the hot path and flush them to the shared
// counters once per run — at Release, or at the Reset that begins the
// next run — and the flush is idempotent, so Release after a Reset never
// double-counts.
func TestMetricsFlushPerRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		Rounds:   reg.Counter("sim.rounds"),
		Acquires: reg.Counter("sim.acquires"),
		Releases: reg.Counter("sim.releases"),
	}
	cfg := Config{
		Algorithm:  keepDir(),
		Dynamics:   Oblivious{G: dyngraph.NewStatic(5)},
		Placements: []Placement{{Node: 0, Chirality: robot.RightIsCW}},
		Metrics:    m,
	}
	sim, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(7)
	if got := m.Rounds.Value(); got != 0 {
		t.Fatalf("rounds flushed mid-run: %d", got)
	}
	// Reset flushes the finished run before starting the next.
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.Rounds.Value(); got != 7 {
		t.Fatalf("rounds after Reset = %d, want 7", got)
	}
	sim.Run(5)
	sim.Release()
	if got := m.Rounds.Value(); got != 12 {
		t.Fatalf("rounds after Release = %d, want 12", got)
	}
	if a, r := m.Acquires.Value(), m.Releases.Value(); a != 1 || r != 1 {
		t.Fatalf("acquires=%d releases=%d, want 1/1", a, r)
	}
}

// TestLockstepMetricsFlushPerRun is the lane-engine counterpart: rounds,
// per-lane steps and the word-graph fast-path split flush at Release.
func TestLockstepMetricsFlushPerRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := &Metrics{
		LockstepRounds:     reg.Counter("sim.lockstep.rounds"),
		LockstepLaneRounds: reg.Counter("sim.lockstep.laneRounds"),
		LockstepAcquires:   reg.Counter("sim.lockstep.acquires"),
		LockstepReleases:   reg.Counter("sim.lockstep.releases"),
		WordFastLanes:      reg.Counter("sim.wordFastLanes"),
		WordFallbackLanes:  reg.Counter("sim.wordFallbackLanes"),
	}
	ls, err := AcquireLockstep(LockstepConfig{
		Lanes: []LaneRun{
			{Table: core.PEF3Plus, Graph: dyngraph.NewStatic(6), Placements: EvenPlacements(6, 3), Horizon: 6},
			{Table: core.PEF3Plus, Graph: dyngraph.NewStatic(6), Placements: EvenPlacements(6, 3), Horizon: 6},
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !ls.Done() {
		ls.Step()
	}
	if got := m.LockstepRounds.Value(); got != 0 {
		t.Fatalf("lockstep rounds flushed mid-run: %d", got)
	}
	ls.Release()
	if got := m.LockstepRounds.Value(); got != 6 {
		t.Fatalf("lockstep rounds = %d, want 6", got)
	}
	if got := m.LockstepLaneRounds.Value(); got != 12 {
		t.Fatalf("lockstep lane rounds = %d, want 12 (2 lanes x 6 rounds)", got)
	}
	if fast, fall := m.WordFastLanes.Value(), m.WordFallbackLanes.Value(); fast+fall != 12 {
		t.Fatalf("word fast/fallback lanes = %d/%d, want sum 12 (one per lane-round)", fast, fall)
	}
	if a, r := m.LockstepAcquires.Value(), m.LockstepReleases.Value(); a != 1 || r != 1 {
		t.Fatalf("lockstep acquires=%d releases=%d, want 1/1", a, r)
	}
}
