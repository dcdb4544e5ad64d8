package scenario

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// steadySpec is the alloc-guard workload: a mid-size static-ring spec so
// every allocation left in the oracle path is per-spec bookkeeping, never
// per-round.
func steadySpec(horizon int) Spec {
	return Spec{
		Version:   Version,
		Ring:      12,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: PlaceEven,
		Family:    "static",
		Horizon:   horizon,
		Seed:      7,
	}
}

// TestOracleEvaluationSteadyStateAllocFree guards the campaign hot path:
// the per-spec cost of Run must not scale with the horizon — all per-round
// work (snapshots, presence sets, occupancy, trackers) reuses pooled
// storage. Per-spec constant bookkeeping (verdict, ID string, reports) is
// allowed; per-round allocation is the regression this test catches.
// Skipped under -race (instrumented allocation counts).
func TestOracleEvaluationSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	measure := func(horizon int) float64 {
		s := steadySpec(horizon)
		Run(s) // warm pools and grow tracker capacity for this horizon
		return testing.AllocsPerRun(20, func() {
			if v := Run(s); !v.OK {
				t.Fatalf("guard spec failed: %+v", v)
			}
		})
	}
	short := measure(200)
	long := measure(1400)
	// Six times the rounds may not cost extra allocations beyond noise.
	if long > short+2 {
		t.Fatalf("oracle evaluation allocates per round: %v allocs at horizon 200 vs %v at 1400", short, long)
	}
}

// familySpec is steadySpec on the given family, with the parameters and
// team size the family needs.
func familySpec(family string, horizon int) Spec {
	s := steadySpec(horizon)
	s.Family = family
	switch family {
	case "bernoulli":
		s.Params.P = 0.6
	case "markov":
		s.Params.Up, s.Params.Down = 0.4, 0.25
	case FamilyBlockPointed:
		s.Params.Budget = 2
	case FamilyConfineOne:
		s.Robots = 1
	case FamilyConfineTwo:
		s.Robots = 2
	}
	return s
}

// adaptiveFamilies are the families whose specs never take the lockstep
// engine: their dynamics react to robot positions.
var adaptiveFamilies = []string{FamilyBlockPointed, FamilyConfineOne, FamilyConfineTwo}

// TestAdversarialOracleSteadyStateAllocFree extends the oracle guard to
// adaptive adversaries: their presence sets are written in place, so six
// times the horizon may not cost more allocations beyond noise. Skipped
// under -race (instrumented allocation counts).
func TestAdversarialOracleSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, family := range adaptiveFamilies {
		t.Run(family, func(t *testing.T) {
			measure := func(horizon int) float64 {
				s := familySpec(family, horizon)
				Run(s) // warm pools and grow tracker capacity for this horizon
				return testing.AllocsPerRun(20, func() {
					if v := Run(s); !v.OK {
						t.Fatalf("guard spec failed: %+v", v)
					}
				})
			}
			short := measure(200)
			long := measure(1200)
			if long > short+2 {
				t.Fatalf("%s oracle evaluation allocates per round: %v allocs at horizon 200 vs %v at 1200", family, short, long)
			}
		})
	}
}

// syntheticVerdict builds verdict i of a stream whose scalar values cycle
// over a fixed universe — the shape of a long steady-state campaign.
func syntheticVerdict(i int) Verdict {
	fam := []string{"static", "bernoulli", "markov", "roving"}[i%4]
	return Verdict{
		ID:        fmt.Sprintf("v%d", i),
		Spec:      Spec{Ring: 8 + i%4, Robots: 3, Family: fam},
		Expect:    ExpectExplore,
		Outcome:   "explored",
		OK:        true,
		Covered:   8,
		CoverTime: i % 50,
		MaxGap:    i % 30,
		Distinct:  i % 8,
	}
}

// newTestAggregate builds an aggregate for a synthetic stream.
func newTestAggregate(t testing.TB) *Aggregate {
	t.Helper()
	agg, err := NewAggregate(CampaignConfig{Generator: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// footprint measures the aggregate's retained state: family rows, scalar
// distribution cells, and violations. This is the quantity the streaming
// redesign promises stays O(aggregate) — bounded by the value universe,
// independent of how many scenarios streamed through.
func footprint(a *Aggregate) int {
	n := len(a.FamilyTable()) + len(a.Violations())
	for _, st := range a.Sweep().ScalarStates() {
		n += len(st.Entries)
	}
	return n
}

// TestAggregateStateBoundedByScenarioCount is the aggregation-side memory
// guard of the streaming campaign redesign: folding ten times more
// verdicts from the same value universe must not grow the aggregate's
// retained state at all. (The collected legacy path held every verdict —
// O(scenarios); the aggregate holds distributions — O(distinct values).)
func TestAggregateStateBoundedByScenarioCount(t *testing.T) {
	agg := newTestAggregate(t)
	for i := 0; i < 1000; i++ {
		agg.Add(syntheticVerdict(i))
	}
	atThousand := footprint(agg)
	for i := 1000; i < 10000; i++ {
		agg.Add(syntheticVerdict(i))
	}
	if got := footprint(agg); got != atThousand {
		t.Fatalf("aggregation state grew with scenario count: %d cells at 1k verdicts, %d at 10k", atThousand, got)
	}
	if agg.Done() != 10000 {
		t.Fatalf("Done() = %d", agg.Done())
	}
}

// TestAggregateAddSteadyStateAllocFree guards the per-verdict cost of
// streamed aggregation: once the value universe has been seen, Add must
// not allocate. Skipped under -race (instrumented allocation counts).
func TestAggregateAddSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	agg := newTestAggregate(t)
	verdicts := make([]Verdict, 200)
	for i := range verdicts {
		verdicts[i] = syntheticVerdict(i)
		agg.Add(verdicts[i]) // warm: populate families and distributions
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		agg.Add(verdicts[i%len(verdicts)])
		i++
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state Aggregate.Add allocates: %v allocs/op", allocs)
	}
}

// TestRunBlockBoundedDeltaMemory guards the bounded family's memory: its
// forced-phase table takes O(n) memory whatever delta is, on the lane
// engine as on the scalar one. A table indexed by phase would allocate
// 8·delta bytes (128 MB here) per graph.
func TestRunBlockBoundedDeltaMemory(t *testing.T) {
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = Spec{Version: Version, Ring: 8, Robots: 3, Algorithm: "pef3+", Placement: PlaceEven,
			Family: "bounded", Params: Params{P: 0.5, Delta: 1 << 24}, Horizon: 200, Seed: uint64(i + 1)}
	}
	tel := NewTelemetry()
	RunBlock(context.Background(), specs, RunOptions{Telemetry: tel}) // warm the pools
	if got := tel.Snapshot().Counters["engine.lockstepSpecs"]; got != int64(len(specs)) {
		t.Fatalf("engine.lockstepSpecs = %d, want %d: the guard must run the lane engine", got, len(specs))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, v := range RunBlock(context.Background(), specs, RunOptions{}) {
		if v.Err != "" {
			t.Fatalf("spec %s: %s", v.ID, v.Err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("RunBlock over delta=%d allocated %d bytes, want < %d", 1<<24, got, limit)
	}
}
