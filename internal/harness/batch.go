package harness

import (
	"context"
	"fmt"
	"io"

	"pef/internal/metrics"
)

// BatchConfig parameterizes a concurrent (experiment × seed) sweep.
type BatchConfig struct {
	// Experiments selects the experiments to run; nil means All().
	Experiments []Experiment
	// Seeds lists the seeds swept per experiment; empty means {1}.
	Seeds []uint64
	// Workers bounds the worker pool; values < 1 mean GOMAXPROCS.
	Workers int
	// Quick is forwarded to every job's Config.
	Quick bool
	// Shard expands experiments that declare Shards (the heavy ring-size
	// sweeps) into per-ring-size sub-experiments before building the job
	// matrix, so no single experiment serializes a sweep on one worker.
	Shard bool
	// OnResult, when non-nil, is invoked from RunBatch's goroutine in
	// canonical (experiment, seed) order, as soon as the pool job holding
	// the result and every earlier one have finished. Emission order is
	// therefore independent of the worker count. On cancellation only
	// the results of jobs that ran are streamed, a solid prefix; the
	// cancelled jobs' results appear only in the returned slice.
	OnResult func(JobResult)
	// Metrics, when non-nil, instruments the underlying pool (see
	// PoolConfig.Metrics); it never affects results or report bytes.
	Metrics *PoolMetrics
}

// JobResult is the outcome of one (experiment, seed) job. It carries no
// wall clock, so a batch's results are identical from run to run and for
// any worker count.
type JobResult struct {
	// ID and Seed identify the job.
	ID   string
	Seed uint64
	// Result is the experiment outcome. Jobs that errored or were
	// cancelled carry a failed Result with the experiment's identity
	// filled in.
	Result Result
	// Err reports an execution error, a recovered panic, or — for jobs
	// that never ran because the context was cancelled — the context's
	// error.
	Err error
}

// Passed reports the job's verdict: it executed without error and its
// result reproduces the paper's prediction. This single predicate drives
// the exit code, report footers, and JSON pass rate alike.
func (j JobResult) Passed() bool { return j.Err == nil && j.Result.Pass }

// Passes counts the passing jobs in a batch.
func Passes(jobs []JobResult) int {
	n := 0
	for _, j := range jobs {
		if j.Passed() {
			n++
		}
	}
	return n
}

// Seeds returns the n consecutive seeds starting at base, the canonical
// sweep for "-seeds n" style invocations.
func Seeds(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// RunBatch runs the (experiment × seed) job matrix on the generic
// StreamPool worker pool and returns one JobResult per job in canonical order:
// experiments in index order, seeds in the order given, seeds varying
// fastest. Results are collected unordered but the returned slice — and the
// OnResult callback sequence — is identical for any worker count, so batch
// output is bit-for-bit reproducible.
//
// A pool job covers one experiment and a block of its seeds. A seed-free
// experiment (one that never reads Config.Seed, such as the confinement
// rows and the figures) runs once, with Seed zero, and its Result is
// copied to every seed. A planned experiment (E-T1.R1 and E-X7) runs its
// lane plan for blocks of laneWidth / (its widest row's runs) seeds,
// packing their runs into shared lane blocks. Every other experiment runs
// one job per seed. The block size depends only on the experiment and the
// quick setting, and each seed's Result is the one Run gives it alone, so
// the job shapes never reach the output. A caller that wraps an
// experiment's Run (to time it, say) sees one call per seed-free
// experiment and none for a planned one, whose blocks bypass Run.
//
// A job that panics is recovered into failed JobResults; execution errors
// likewise mark only their own job's seeds. RunBatch itself fails only
// when ctx is cancelled, in which case in-flight jobs finish, the seeds of
// unstarted jobs are marked with ctx's error, and the partially-filled
// slice is returned alongside it.
func RunBatch(ctx context.Context, cfg BatchConfig) ([]JobResult, error) {
	exps := cfg.Experiments
	if exps == nil {
		exps = All()
	}
	if cfg.Shard {
		exps = Sharded(exps, cfg.Quick)
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	type job struct {
		e     Experiment
		at    int // index of the job's first JobResult
		seeds []uint64
	}
	var jobs []job
	for i, e := range exps {
		size := 1
		switch {
		case e.seedFree:
			size = len(seeds)
		case e.packing != nil:
			size = e.packing.size(cfg.Quick)
		}
		for lo := 0; lo < len(seeds); lo += size {
			jobs = append(jobs, job{e, i*len(seeds) + lo, seeds[lo:min(lo+size, len(seeds))]})
		}
	}
	out := make([]JobResult, len(exps)*len(seeds))
	for item := range StreamPool(ctx, PoolConfig[[]JobResult]{
		Total:   len(jobs),
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
		Run: func(i int) []JobResult {
			return runJob(jobs[i].e, jobs[i].seeds, cfg.Quick)
		},
	}) {
		j := jobs[item.I]
		for k, seed := range j.seeds {
			if item.Err != nil {
				out[j.at+k] = failedJob(j.e, seed, item.Err, "job cancelled before running")
				continue
			}
			out[j.at+k] = item.R[k]
			if cfg.OnResult != nil {
				cfg.OnResult(item.R[k])
			}
		}
	}
	return out, ctx.Err()
}

// failedJob is the JobResult of an experiment that did not run under seed:
// its identity on a failed result, with err and, when not empty, a note.
func failedJob(e Experiment, seed uint64, err error, note string) JobResult {
	jr := JobResult{ID: e.ID, Seed: seed, Result: e.result()}
	jr.Err = fmt.Errorf("harness: experiment %s (seed %d): %w", e.ID, seed, err)
	if note != "" {
		jr.Result.Notes = append(jr.Result.Notes, note)
	}
	return jr
}

// runJob runs experiment e for seeds, one JobResult per seed, converting
// an error or a panic into failed results so a single diverging
// experiment cannot take down a sweep.
func runJob(e Experiment, seeds []uint64, quick bool) []JobResult {
	var results []Result
	err := recovered(func() error {
		switch {
		case e.seedFree:
			res, err := e.Run(Config{Quick: quick})
			results = make([]Result, len(seeds))
			for k := range results {
				results[k] = res.clone()
			}
			return err
		case e.packing != nil:
			var err error
			results, err = e.packing.run(quick, seeds)
			return err
		default:
			res, err := e.Run(Config{Seed: seeds[0], Quick: quick})
			results = []Result{res}
			return err
		}
	})
	note := ""
	if p, ok := err.(panicked); ok {
		note = fmt.Sprintf("recovered panic: %v", p.v)
	}
	out := make([]JobResult, len(seeds))
	for k, seed := range seeds {
		if err != nil {
			out[k] = failedJob(e, seed, err, note)
			continue
		}
		out[k] = JobResult{ID: e.ID, Seed: seed, Result: results[k]}
	}
	return out
}

// panicked is a panic recovered by recovered.
type panicked struct{ v any }

func (p panicked) Error() string { return fmt.Sprintf("panic: %v", p.v) }

// recovered calls f, returning a panic in it as a panicked error.
func recovered(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicked{v}
		}
	}()
	return f()
}

// SweepAggregate folds a batch's results into the metrics sweep matrix used
// by the aggregate report: per-experiment pass rates across seeds, the
// per-seed min/max/gap summary, and the scalar observations (cover times,
// revisit gaps) each experiment emitted.
func SweepAggregate(jobs []JobResult) *metrics.Sweep {
	sw := metrics.NewSweep()
	for _, j := range jobs {
		sw.Record(j.ID, j.Seed, j.Passed())
		for _, sc := range j.Result.Scalars {
			sw.RecordScalar(j.ID, sc.Name, sc.Value)
		}
	}
	return sw
}

// WriteBatchReport renders a sweep report: a header, the aggregate
// pass-rate table, and a full per-result section for every failing job.
// The report depends only on the job slice, never on scheduling, so equal
// batches render byte-identical reports for any worker count.
func WriteBatchReport(w io.Writer, jobs []JobResult) error {
	sw := SweepAggregate(jobs)
	if _, err := fmt.Fprintf(w, "\n## Aggregate (%d experiments × %d seeds)\n\n", sw.IDs(), sw.SeedCount()); err != nil {
		return err
	}
	if err := sw.Table().Render(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n## Per-seed spread\n\n"); err != nil {
		return err
	}
	if err := sw.SeedTable().Render(w); err != nil {
		return err
	}
	if sw.ScalarCount() > 0 {
		if _, err := io.WriteString(w, "\n## Scalar metrics\n\n"); err != nil {
			return err
		}
		if err := sw.ScalarTable().Render(w); err != nil {
			return err
		}
	}
	failures := 0
	for _, j := range jobs {
		if j.Passed() {
			continue
		}
		failures++
		if _, err := fmt.Fprintf(w, "\n### Failure: %s seed=%d\n", j.ID, j.Seed); err != nil {
			return err
		}
		if j.Err != nil {
			if _, err := fmt.Fprintf(w, "\nerror: %v\n", j.Err); err != nil {
				return err
			}
			continue
		}
		if err := WriteResult(w, j.Result); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n---\n%d/%d jobs reproduce the paper's predictions.\n", len(jobs)-failures, len(jobs))
	return err
}
