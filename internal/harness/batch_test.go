package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pef/internal/metrics"
)

// syntheticExp builds a fast experiment whose verdict and work depend only
// on the seed, so batch-engine tests don't pay full experiment costs.
func syntheticExp(id string, passUnless func(seed uint64) bool) Experiment {
	return Experiment{
		ID:       id,
		Title:    "synthetic " + id,
		Artifact: "test",
		Run: func(cfg Config) (Result, error) {
			// Seed-dependent busy work scrambles completion order across
			// workers without introducing time dependence.
			acc := cfg.Seed
			for i := uint64(0); i < 1000*(cfg.Seed%7+1); i++ {
				acc = acc*6364136223846793005 + 1442695040888963407
			}
			t := metrics.NewTable("seed", "acc")
			t.AddRow(cfg.Seed, acc%100)
			return Result{
				ID:       id,
				Title:    "synthetic " + id,
				Artifact: "test",
				Pass:     !passUnless(cfg.Seed),
				Table:    t,
				Notes:    []string{fmt.Sprintf("seed %d", cfg.Seed)},
			}, nil
		},
	}
}

func syntheticIndex(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		fail := func(uint64) bool { return false }
		if i == 2 {
			fail = func(seed uint64) bool { return seed%3 == 0 }
		}
		exps[i] = syntheticExp(fmt.Sprintf("E-SYN%d", i), fail)
	}
	return exps
}

func TestRunBatchDeterministicAcrossWorkers(t *testing.T) {
	exps := syntheticIndex(6)
	seeds := Seeds(1, 9)
	render := func(workers int) ([]JobResult, string) {
		jobs, err := RunBatch(context.Background(), BatchConfig{
			Experiments: exps,
			Seeds:       seeds,
			Workers:     workers,
			Quick:       true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteBatchReport(&buf, jobs); err != nil {
			t.Fatalf("workers=%d: report: %v", workers, err)
		}
		return jobs, buf.String()
	}
	jobs1, rep1 := render(1)
	jobs8, rep8 := render(8)
	if !reflect.DeepEqual(jobs1, jobs8) {
		t.Fatal("RunBatch results differ between workers=1 and workers=8")
	}
	if rep1 != rep8 {
		t.Fatalf("batch reports differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", rep1, rep8)
	}
	if len(jobs1) != len(exps)*len(seeds) {
		t.Fatalf("got %d jobs, want %d", len(jobs1), len(exps)*len(seeds))
	}
}

func TestRunBatchCanonicalOrder(t *testing.T) {
	exps := syntheticIndex(4)
	seeds := Seeds(10, 5)
	var emitted []string
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Experiments: exps,
		Seeds:       seeds,
		Workers:     8,
		OnResult: func(j JobResult) {
			emitted = append(emitted, fmt.Sprintf("%s/%d", j.ID, j.Seed))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range exps {
		for _, s := range seeds {
			want = append(want, fmt.Sprintf("%s/%d", e.ID, s))
		}
	}
	if !reflect.DeepEqual(emitted, want) {
		t.Fatalf("OnResult order:\ngot  %v\nwant %v", emitted, want)
	}
	for i, j := range jobs {
		if got := fmt.Sprintf("%s/%d", j.ID, j.Seed); got != want[i] {
			t.Fatalf("slice order at %d: got %s want %s", i, got, want[i])
		}
	}
}

func TestRunBatchRecoversPanics(t *testing.T) {
	boom := Experiment{
		ID:       "E-BOOM",
		Title:    "panics on even seeds",
		Artifact: "test",
		Run: func(cfg Config) (Result, error) {
			if cfg.Seed%2 == 0 {
				panic(fmt.Sprintf("seed %d diverged", cfg.Seed))
			}
			return Result{ID: "E-BOOM", Pass: true}, nil
		},
	}
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Experiments: []Experiment{boom},
		Seeds:       Seeds(1, 4),
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		even := j.Seed%2 == 0
		if even {
			if j.Err == nil || !strings.Contains(j.Err.Error(), "panic") {
				t.Fatalf("seed %d: want recovered panic, got err=%v", j.Seed, j.Err)
			}
			if j.Result.Pass {
				t.Fatalf("seed %d: panicking job must not pass", j.Seed)
			}
			if j.Result.ID != "E-BOOM" {
				t.Fatalf("seed %d: failed result lost its identity: %q", j.Seed, j.Result.ID)
			}
		} else if j.Err != nil || !j.Result.Pass {
			t.Fatalf("seed %d: healthy job failed: err=%v pass=%t", j.Seed, j.Err, j.Result.Pass)
		}
	}
}

func TestRunBatchPropagatesErrors(t *testing.T) {
	sentinel := errors.New("sentinel failure")
	flaky := Experiment{
		ID: "E-ERR", Title: "errors on seed 2", Artifact: "test",
		Run: func(cfg Config) (Result, error) {
			if cfg.Seed == 2 {
				return Result{}, sentinel
			}
			return Result{ID: "E-ERR", Pass: true}, nil
		},
	}
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Experiments: []Experiment{flaky},
		Seeds:       Seeds(1, 3),
		Workers:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Seed == 2 {
			if !errors.Is(j.Err, sentinel) {
				t.Fatalf("seed 2: want sentinel error, got %v", j.Err)
			}
		} else if j.Err != nil {
			t.Fatalf("seed %d: unexpected error %v", j.Seed, j.Err)
		}
	}
}

func TestRunBatchCancellation(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	blocker := Experiment{
		ID: "E-BLOCK", Title: "blocks until released", Artifact: "test",
		Run: func(cfg Config) (Result, error) {
			started <- struct{}{}
			<-gate
			return Result{ID: "E-BLOCK", Pass: true}, nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		jobs []JobResult
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		jobs, err := RunBatch(ctx, BatchConfig{
			Experiments: []Experiment{blocker},
			Seeds:       Seeds(1, 16),
			Workers:     2,
		})
		res <- outcome{jobs, err}
	}()
	// Wait for both workers to be mid-job, then cancel and release them.
	<-started
	<-started
	cancel()
	close(gate)

	out := <-res
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out.err)
	}
	if len(out.jobs) != 16 {
		t.Fatalf("got %d job slots, want 16", len(out.jobs))
	}
	cancelled := 0
	for _, j := range out.jobs {
		if errors.Is(j.Err, context.Canceled) {
			cancelled++
		}
	}
	// Two jobs were in flight when cancel hit; nearly all of the rest must
	// have been stopped before running.
	if cancelled < 12 {
		t.Fatalf("only %d/16 jobs were cancelled; sweep did not stop promptly", cancelled)
	}
}

func TestSeedsHelper(t *testing.T) {
	if got := Seeds(5, 3); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("Seeds(5,3) = %v", got)
	}
	if got := Seeds(9, 0); !reflect.DeepEqual(got, []uint64{9}) {
		t.Fatalf("Seeds(9,0) = %v, want one seed", got)
	}
}

func TestSweepAggregate(t *testing.T) {
	jobs := []JobResult{
		{ID: "A", Seed: 1, Result: Result{Pass: true}},
		{ID: "A", Seed: 2, Result: Result{Pass: false}},
		{ID: "B", Seed: 1, Result: Result{Pass: true}},
		{ID: "B", Seed: 2, Result: Result{Pass: true}, Err: errors.New("boom")},
	}
	sw := SweepAggregate(jobs)
	if sw.IDs() != 2 || sw.SeedCount() != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", sw.IDs(), sw.SeedCount())
	}
	// A job with Err counts as failing even if its Result claims Pass.
	if got := sw.Passes(); got != 2 {
		t.Fatalf("passes = %d, want 2", got)
	}
	if got := sw.SeedPasses(); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("per-seed passes = %v, want [2 0]", got)
	}
}

// TestRunBatchRealIndexAcrossSeeds is the integration check: the full
// experiment index swept across seeds through the concurrent engine must
// pass everywhere, matching the paper's seed-independent claims.
func TestRunBatchRealIndexAcrossSeeds(t *testing.T) {
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Seeds:   Seeds(1, 3),
		Workers: 4,
		Quick:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(All())*3 {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(All())*3)
	}
	for _, j := range jobs {
		if j.Err != nil {
			t.Errorf("%s seed=%d errored: %v", j.ID, j.Seed, j.Err)
		} else if !j.Result.Pass {
			t.Errorf("%s seed=%d failed: %v", j.ID, j.Seed, j.Result.Notes)
		}
	}
}
