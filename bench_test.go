package pef

import (
	"context"
	"fmt"
	"io"
	"testing"

	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/harness"
)

// benchExperiment runs one harness experiment per iteration; the bench
// names index the paper artifacts (see DESIGN.md experiment index). The
// measured quantity is the wall cost of regenerating the artifact; the
// experiment's own pass verdict is asserted.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Find(id, true)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(harness.Config{Seed: uint64(i) + 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s failed: %v", id, res.Notes)
		}
	}
}

// Table 1 — one bench per row.

func BenchmarkTable1Row1_PEF3Plus(b *testing.B)          { benchExperiment(b, "E-T1.R1") }
func BenchmarkTable1Row2_TwoRobotAdversary(b *testing.B) { benchExperiment(b, "E-T1.R2") }
func BenchmarkTable1Row3_PEF2(b *testing.B)              { benchExperiment(b, "E-T1.R3") }
func BenchmarkTable1Row4_OneRobotAdversary(b *testing.B) { benchExperiment(b, "E-T1.R4") }
func BenchmarkTable1Row5_PEF1(b *testing.B)              { benchExperiment(b, "E-T1.R5") }

// Figures 1-3.

func BenchmarkFigure1_MirrorConstruction(b *testing.B)  { benchExperiment(b, "E-F1") }
func BenchmarkFigure2_ConfinementSchedule(b *testing.B) { benchExperiment(b, "E-F2") }
func BenchmarkFigure3_ConfinementSchedule(b *testing.B) { benchExperiment(b, "E-F3") }

// Extension experiments.

func BenchmarkX1_CoverTimeScaling(b *testing.B)       { benchExperiment(b, "E-X1") }
func BenchmarkX2_GapVsRecurrence(b *testing.B)        { benchExperiment(b, "E-X2") }
func BenchmarkX3_RuleAblation(b *testing.B)           { benchExperiment(b, "E-X3") }
func BenchmarkX4_SSYNCImpossibility(b *testing.B)     { benchExperiment(b, "E-X4") }
func BenchmarkX5_Chains(b *testing.B)                 { benchExperiment(b, "E-X5") }
func BenchmarkX6_SelfStabilizationProbe(b *testing.B) { benchExperiment(b, "E-X6") }
func BenchmarkX7_TeamSizeSweep(b *testing.B)          { benchExperiment(b, "E-X7") }
func BenchmarkX8_ConvergencePrefixes(b *testing.B)    { benchExperiment(b, "E-X8") }
func BenchmarkX9_TaxonomyClassification(b *testing.B) { benchExperiment(b, "E-X9") }
func BenchmarkX10_SentinelFormation(b *testing.B)     { benchExperiment(b, "E-X10") }
func BenchmarkX11_ThreeRobotThreshold(b *testing.B)   { benchExperiment(b, "E-X11") }

// BenchmarkFullReport regenerates the single-seed report of
// `pef experiments`, streamed in index order by one worker.
func BenchmarkFullReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var werr error
		_, err := harness.RunBatch(context.Background(), harness.BatchConfig{
			Workers: 1,
			Quick:   true,
			OnResult: func(j harness.JobResult) {
				if werr == nil {
					werr = j.Err
				}
				if werr == nil {
					werr = harness.WriteResult(io.Discard, j.Result)
				}
			},
		})
		if err != nil || werr != nil {
			b.Fatal(err, werr)
		}
	}
}

// BenchmarkBatchSweep measures the concurrent seed sweep of the full
// experiment index: the same 4-seed batch fanned across growing worker
// pools. The workers=1 case is the sequential baseline; the speedup curve
// shows the hot path scaling with cores instead of experiments.
func BenchmarkBatchSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jobs, err := harness.RunBatch(context.Background(), harness.BatchConfig{
					Seeds:   harness.Seeds(1, 4),
					Workers: workers,
					Quick:   true,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, j := range jobs {
					if j.Err != nil || !j.Result.Pass {
						b.Fatalf("%s seed=%d failed: %v", j.ID, j.Seed, j.Err)
					}
				}
			}
		})
	}
}

// BenchmarkBatchAggregate measures the pure aggregation cost (sweep matrix
// plus report rendering) on a pre-computed batch, isolating it from
// experiment execution.
func BenchmarkBatchAggregate(b *testing.B) {
	jobs, err := harness.RunBatch(context.Background(), harness.BatchConfig{
		Seeds: harness.Seeds(1, 8),
		Quick: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := harness.WriteBatchReport(io.Discard, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// Simulator throughput: rounds per second for PEF_3+ across ring sizes and
// team sizes, on the hardest oblivious workload (Bernoulli 0.5).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		for _, k := range []int{3, 8} {
			if k >= n {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				rep, err := Explore(context.Background(), ExploreConfig{
					Robots:    k,
					Algorithm: PEF3Plus(),
					Dynamics:  Bernoulli(n, 0.5, 99),
					Horizon:   b.N,
					Seed:      99,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = rep
			})
		}
	}
}

// BenchmarkJourney measures the foremost-journey computation on a long
// Bernoulli trace.
func BenchmarkJourney(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := dynamics.NewBernoulli(n, 0.3, 5)
			for i := 0; i < b.N; i++ {
				arr := dyngraph.ForemostArrivals(g, 0, 0, 50*n)
				if arr[n/2] < 0 {
					b.Fatal("unreachable midpoint")
				}
			}
		})
	}
}

// BenchmarkDynamics measures raw presence-set generation.
func BenchmarkDynamics(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("bernoulli/n=%d", n), func(b *testing.B) {
			g := dynamics.NewBernoulli(n, 0.5, 7)
			for i := 0; i < b.N; i++ {
				dyngraph.EdgesAt(g, i)
			}
		})
		b.Run(fmt.Sprintf("t-interval/n=%d", n), func(b *testing.B) {
			g := dynamics.NewTInterval(n, 4, 7)
			for i := 0; i < b.N; i++ {
				dyngraph.EdgesAt(g, i)
			}
		})
	}
}
