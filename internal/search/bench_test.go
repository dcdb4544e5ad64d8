package search

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkSearchGeneration measures one 256-spec generation — plan,
// engine block, fold — at one and two workers. The generation fits one
// 1024-spec engine block, so the pool has a single job; the second worker
// speeds it up only through RunBlock's in-block fan-out over the block's
// units: about four full 64-lane groups of mixed rings, then the scalar
// specs.
func BenchmarkSearchGeneration(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Seed: 1, Generations: 1, GenerationSize: 256, Workers: workers}
			for b.Loop() {
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
