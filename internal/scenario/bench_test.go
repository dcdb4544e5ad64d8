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
// pool, the full path of `pef scenarios`.
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

// BenchmarkCampaignRoute times the 4 × 1000 uniform campaign of `pef
// scenarios -count 1000 -seeds 4` on one worker, down both engine routes:
// lanes is the campaign itself (1024-spec blocks through RunBlock),
// scalar runs the same specs one by one on the scalar oracle. Both fold
// into an Aggregate. CI fails when lanes is slower than scalar: the lane
// engine exists to be faster.
func BenchmarkCampaignRoute(b *testing.B) {
	cfg := CampaignConfig{Generator: "uniform", Count: 1000, Seeds: []uint64{1, 2, 3, 4}, Workers: 1}
	check := func(b *testing.B, agg *Aggregate) {
		if agg.Done() != 4000 || len(agg.Violations()) != 0 {
			b.Fatalf("%d scenarios, %d violations", agg.Done(), len(agg.Violations()))
		}
	}
	b.Run("lanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := NewAggregate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for v, err := range StreamCampaign(context.Background(), cfg) {
				if err != nil {
					b.Fatal(err)
				}
				agg.Add(v)
			}
			check(b, agg)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := NewAggregate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, seed := range cfg.Seeds {
				specs, err := Generate(cfg.Generator, cfg.Gen, seed, cfg.Count)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range specs {
					agg.Add(runScalar(context.Background(), s, RunOptions{}))
				}
			}
			check(b, agg)
		}
	})
}
