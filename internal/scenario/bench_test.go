package scenario

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkOracleRun measures one spec evaluation end to end (dynamics
// build, pooled simulator run, predicate check) — the per-scenario unit
// cost a million-scenario campaign pays. The adversary families' pef3+
// runs retire at their lasso; the two counter-core victims time both
// scalar lasso paths a campaign's scalar specs take: pendulum-3 retires
// within a few rounds, and lcg-walker-7 compares its state every round
// and runs to the horizon.
func BenchmarkOracleRun(b *testing.B) {
	type bench struct{ name, family, alg string }
	var benches []bench
	for _, family := range append([]string{"static", "bernoulli", "markov"}, adaptiveFamilies...) {
		benches = append(benches, bench{family, family, ""})
	}
	benches = append(benches,
		bench{FamilyConfineOne + "/pendulum-3", FamilyConfineOne, "pendulum-3"},
		bench{FamilyConfineTwo + "/lcg-walker-7", FamilyConfineTwo, "lcg-walker-7"})
	for _, c := range benches {
		b.Run(c.name, func(b *testing.B) {
			s := familySpec(c.family, 600)
			if c.alg != "" {
				s.Algorithm = c.alg
			}
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

// BenchmarkCampaignRoute times two campaigns on one worker down both
// engine routes: the 4 × 1000 uniform campaign of `pef scenarios -count
// 1000 -seeds 4` and the 4 × 500 adversarial one, whose block-pointed and
// confinement specs ride lanes through the lane adversary. lanes is the
// campaign itself (1024-spec blocks through RunBlock), scalar runs the
// same specs one by one on the scalar oracle. Both fold into an
// Aggregate. CI fails when either campaign's lanes is slower than its
// scalar: the lane engine exists to be faster.
func BenchmarkCampaignRoute(b *testing.B) {
	for _, c := range []struct {
		gen   string
		count int
	}{{"uniform", 1000}, {"adversarial", 500}} {
		cfg := CampaignConfig{Generator: c.gen, Count: c.count, Seeds: []uint64{1, 2, 3, 4}, Workers: 1}
		check := func(b *testing.B, agg *Aggregate) {
			if agg.Done() != 4*c.count || len(agg.Violations()) != 0 {
				b.Fatalf("%s: %d scenarios, %d violations", c.gen, agg.Done(), len(agg.Violations()))
			}
		}
		b.Run(c.gen+"/lanes", func(b *testing.B) {
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
		b.Run(c.gen+"/scalar", func(b *testing.B) {
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
}
