package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pef/internal/harness"
	"pef/internal/metrics"
	"pef/internal/telemetry"
)

// runExperiments runs the complete experiment index of harness.All() —
// every table and figure of the paper plus the extension experiments — and
// writes its markdown report, or the JSON trajectory BENCH_0005.json
// records (pef experiments -seeds 32 -json).
//
// Beyond the classic single-seed report, the command sweeps the index over
// many adversary schedules via the concurrent batch engine:
//
//	pef experiments                      # full index, seed 1, markdown report
//	pef experiments -only E-F2           # one experiment
//	pef experiments -seeds 8             # sweep seeds 1..8, aggregate report
//	pef experiments -seeds 32 -workers 8 # same sweep, 8 workers
//	pef experiments -seeds 8 -json       # machine-readable sweep output
//
// Flags:
//
//	-seed N     base seed (default 1)
//	-seeds N    sweep N consecutive seeds starting at -seed (default 1)
//	-workers M  worker pool size; <1 means GOMAXPROCS. Output is
//	            byte-identical for any worker count.
//	-json       emit the sweep as JSON (for BENCH_*.json trajectories);
//	            it carries no wall clocks, so it is byte-identical from
//	            run to run
//	-only ID    restrict to a single experiment, or to one shard by the
//	            row ID the reports print (E-T1.R2#n=4/a=keep-direction);
//	            combines with -seeds
//	-shard      split heavy ring-size sweeps into per-(ring, victim) jobs
//	            so no single experiment serializes on one worker. On by
//	            default since the report consumers migrated to the finer
//	            row IDs (E-T1.R1#n=4, E-T1.R2#n=4/a=keep-direction, …);
//	            pass -shard=false for the coarse one-row-per-experiment
//	            tables.
//	-quick      reduced horizons and sweeps
//	-progress N print a progress line to stderr every N retired jobs
//	            (stderr only: stdout stays byte-identical)
//	-telemetry-addr A
//	            serve the live pool telemetry (JSON under /metrics) and
//	            net/http/pprof on A (":0" picks a free port; the chosen
//	            address is printed to stderr)
//	-trace-events P
//	            write sweep lifecycle events (sweep-start, job-retired,
//	            sweep-end) to P as JSONL, with monotonic sequence numbers
//	            and no wall clocks — byte-identical for any worker count
//
// The process exits non-zero when any (experiment, seed) job errors or
// fails to reproduce the paper's prediction, in every mode — single run,
// -only, sweep, and -json — so CI can trust the exit code.
//
// SIGINT/SIGTERM interrupt a sweep gracefully: in-flight jobs drain, the
// partial report is still rendered, and the process exits non-zero with
// an "interrupted after N of M" note.
func runExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("experiments", stderr)
	var (
		seed     = fs.Uint64("seed", 1, "base experiment seed")
		seeds    = fs.Int("seeds", 1, "number of consecutive seeds to sweep, starting at -seed")
		workers  = fs.Int("workers", 0, "worker pool size (<1 means GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "emit the sweep as JSON")
		quick    = fs.Bool("quick", false, "reduced horizons and sweeps")
		shard    = fs.Bool("shard", true, "split heavy ring-size sweeps into per-ring-size jobs (-shard=false for coarse rows)")
		only     = fs.String("only", "", "run a single experiment or shard by ID (e.g. E-F2, E-T1.R1#n=4)")
		progress = addProgress(fs, "retired jobs")
		obs      = addObservability(fs, "sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if err := progress.validate(); err != nil {
		return err
	}

	exps := harness.All()
	if *only != "" {
		exp, ok := harness.Find(*only, *quick)
		if !ok {
			return fmt.Errorf("unknown experiment %q", *only)
		}
		exps = []harness.Experiment{exp}
	}
	sweep := harness.Seeds(*seed, *seeds)

	cfg := harness.BatchConfig{
		Experiments: exps,
		Seeds:       sweep,
		Workers:     *workers,
		Quick:       *quick,
		Shard:       *shard,
	}

	reg := telemetry.NewRegistry()
	if obs.addr != "" {
		cfg.Metrics = harness.NewPoolMetrics(reg, "pool")
	}
	defer obs.close()
	tracer, err := obs.start(reg.Snapshot, stderr)
	if err != nil {
		return err
	}
	// observe sees every retired job in canonical order (the OnResult
	// sequence is worker-count independent), feeding -progress and the
	// event trace in every mode.
	retired := 0
	var observe func(harness.JobResult)
	if *progress > 0 || tracer != nil {
		observe = func(j harness.JobResult) {
			retired++
			tracer.Emit("job-retired", map[string]any{"id": j.ID, "seed": j.Seed, "pass": j.Passed()})
			if progress.due(retired) {
				fmt.Fprintf(stderr, "progress: %d jobs retired\n", retired)
			}
		}
		cfg.OnResult = observe
	}
	tracer.Emit("sweep-start", map[string]any{
		"experiments": len(exps), "seeds": len(sweep), "quick": *quick, "shard": *shard,
	})

	// A SIGINT/SIGTERM cancels ctx: RunBatch drains in-flight jobs, marks
	// unstarted ones cancelled, and returns the partial slice with the
	// context error. The partial report is still rendered — the drained
	// prefix is valid output — before the interrupt fails the process.
	var jobs []harness.JobResult
	var runErr error
	switch {
	case *jsonOut:
		jobs, runErr = harness.RunBatch(ctx, cfg)
		if eerr := writeJSON(stdout, sweep, *quick, jobs); eerr != nil {
			return eerr
		}
	case *seeds == 1:
		// Classic report: stream every result section in canonical order.
		fmt.Fprintf(stdout, "# Experiment report (seed=%d, quick=%t)\n", *seed, *quick)
		var werr error
		cfg.OnResult = func(j harness.JobResult) {
			if observe != nil {
				observe(j)
			}
			if werr != nil || j.Err != nil {
				return
			}
			werr = harness.WriteResult(stdout, j.Result)
		}
		jobs, runErr = harness.RunBatch(ctx, cfg)
		if werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "\n---\n%d/%d experiments reproduce the paper's predictions.\n", harness.Passes(jobs), len(jobs))
	default:
		fmt.Fprintf(stdout, "# Experiment sweep (seeds=%d..%d, quick=%t)\n", sweep[0], sweep[len(sweep)-1], *quick)
		jobs, runErr = harness.RunBatch(ctx, cfg)
		if werr := harness.WriteBatchReport(stdout, jobs); werr != nil {
			return werr
		}
	}

	tracer.Emit("sweep-end", map[string]any{"passes": harness.Passes(jobs), "total": len(jobs)})
	if terr := tracer.Err(); terr != nil {
		return terr
	}
	if runErr != nil {
		done := 0
		for _, j := range jobs {
			if !errors.Is(j.Err, context.Canceled) {
				done++
			}
		}
		return fmt.Errorf("interrupted after %d of %d experiment job(s): %w", done, len(jobs), runErr)
	}
	return failure(jobs)
}

// failure returns a non-nil error when any job errored or failed, so the
// process exit code reflects the sweep verdict.
func failure(jobs []harness.JobResult) error {
	for _, j := range jobs {
		if j.Err != nil {
			return j.Err
		}
	}
	if failed := len(jobs) - harness.Passes(jobs); failed > 0 {
		return fmt.Errorf("%d of %d experiment job(s) failed", failed, len(jobs))
	}
	return nil
}

// jsonJob is the machine-readable form of one (experiment, seed) outcome.
type jsonJob struct {
	ID       string   `json:"id"`
	Seed     uint64   `json:"seed"`
	Title    string   `json:"title"`
	Artifact string   `json:"artifact"`
	Pass     bool     `json:"pass"`
	Error    string   `json:"error,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	Table    string   `json:"table,omitempty"`
}

// jsonReport is the top-level -json document. It deliberately omits the
// worker count so reports are byte-identical for any -workers value.
type jsonReport struct {
	Seeds    []uint64            `json:"seeds"`
	Quick    bool                `json:"quick"`
	Jobs     []jsonJob           `json:"jobs"`
	Passes   int                 `json:"passes"`
	Total    int                 `json:"total"`
	PassRate float64             `json:"passRate"`
	Scalars  []metrics.ScalarRow `json:"scalars,omitempty"`
}

func writeJSON(w io.Writer, seeds []uint64, quick bool, jobs []harness.JobResult) error {
	rep := jsonReport{Seeds: seeds, Quick: quick, Total: len(jobs)}
	rep.Scalars = harness.SweepAggregate(jobs).ScalarRows()
	for _, j := range jobs {
		jj := jsonJob{
			ID:       j.ID,
			Seed:     j.Seed,
			Title:    j.Result.Title,
			Artifact: j.Result.Artifact,
			Pass:     j.Passed(),
			Notes:    j.Result.Notes,
		}
		if j.Err != nil {
			jj.Error = j.Err.Error()
		}
		if j.Result.Table != nil && j.Result.Table.Rows() > 0 {
			jj.Table = j.Result.Table.String()
		}
		if jj.Pass {
			rep.Passes++
		}
		rep.Jobs = append(rep.Jobs, jj)
	}
	if rep.Total > 0 {
		rep.PassRate = float64(rep.Passes) / float64(rep.Total)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
