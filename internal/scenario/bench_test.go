package scenario

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkOracleRun measures one spec evaluation end to end (dynamics
// build, pooled simulator run, predicate check) — the per-scenario unit
// cost a million-scenario campaign pays.
func BenchmarkOracleRun(b *testing.B) {
	for _, family := range append([]string{"static", "bernoulli", "markov"}, adaptiveFamilies...) {
		b.Run(family, func(b *testing.B) {
			s := familySpec(family, 600)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := Run(s); !v.OK {
					b.Fatalf("spec failed: %+v", v)
				}
			}
		})
	}
}

// BenchmarkCampaign measures a small sharded campaign through the worker
// pool, the full path of cmd/pefscenarios.
func BenchmarkCampaign(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := RunCampaign(context.Background(), CampaignConfig{
					Generator: "uniform",
					Count:     64,
					Seeds:     []uint64{1},
					Workers:   workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(c.Verdicts) != 64 {
					b.Fatalf("campaign produced %d verdicts", len(c.Verdicts))
				}
			}
		})
	}
}
