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
	// OnResult, when non-nil, is invoked from the collecting goroutine
	// in canonical (experiment, seed) order, as soon as every earlier
	// job has finished. Emission order is therefore independent of the
	// worker count. On cancellation only the solid prefix is streamed
	// (see PoolConfig.OnResult).
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

// newJobResult is the canonical identity-filled (not yet executed) job
// outcome; the prefill loop and runJob share it so cancelled and executed
// jobs render with the same identity.
func newJobResult(e Experiment, seed uint64) JobResult {
	return JobResult{
		ID:     e.ID,
		Seed:   seed,
		Result: e.result(),
	}
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

// RunBatch fans the (experiment × seed) job matrix out across the generic
// RunPool worker pool and returns one JobResult per job in canonical order:
// experiments in index order, seeds in the order given, seeds varying
// fastest. Results are collected unordered but the returned slice — and the
// OnResult callback sequence — is identical for any worker count, so batch
// output is bit-for-bit reproducible.
//
// A job that panics is recovered into a failed JobResult; execution errors
// likewise mark only their own job. RunBatch itself fails only when ctx is
// cancelled, in which case in-flight jobs finish, unstarted jobs are marked
// with ctx's error, and the partially-filled slice is returned alongside it.
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
	return RunPool(ctx, PoolConfig[JobResult]{
		Total:   len(exps) * len(seeds),
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
		Run: func(i int) JobResult {
			return runJob(exps[i/len(seeds)], Config{Seed: seeds[i%len(seeds)], Quick: cfg.Quick})
		},
		Placeholder: func(i int) JobResult {
			return newJobResult(exps[i/len(seeds)], seeds[i%len(seeds)])
		},
		Cancelled: func(_ int, jr JobResult, err error) JobResult {
			jr.Err = fmt.Errorf("harness: experiment %s (seed %d): %w", jr.ID, jr.Seed, err)
			jr.Result.Notes = append(jr.Result.Notes, "job cancelled before running")
			return jr
		},
		OnResult: func(_ int, jr JobResult) {
			if cfg.OnResult != nil {
				cfg.OnResult(jr)
			}
		},
	})
}

// runJob executes one experiment under one job Config, converting panics
// into failed results so a single diverging experiment cannot take down a
// sweep.
func runJob(e Experiment, c Config) (jr JobResult) {
	jr = newJobResult(e, c.Seed)
	defer func() {
		if r := recover(); r != nil {
			jr.Err = fmt.Errorf("harness: experiment %s (seed %d): panic: %v", e.ID, c.Seed, r)
			jr.Result.Pass = false
			jr.Result.Notes = append(jr.Result.Notes, fmt.Sprintf("recovered panic: %v", r))
		}
	}()
	res, err := e.Run(c)
	if err != nil {
		jr.Err = fmt.Errorf("harness: experiment %s (seed %d): %w", e.ID, c.Seed, err)
		return jr
	}
	jr.Result = res
	return jr
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
