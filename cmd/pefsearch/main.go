// Command pefsearch hunts the theorem boundary: a coverage-guided,
// generational scenario search that runs blocks of specs through the
// campaign engine, reads back the per-family predicate margins
// (cover-time slack, revisit-gap headroom, confinement headroom), and
// steers the next generation's budget toward the tightest margins — a
// seeded UCB bandit chooses among the registered explorable dynamics
// families, and a near-violation corpus of the lowest-margin surviving
// specs is mutated through the parameter space (ring and team nudges,
// declared-parameter jiggles, reseeds). Violations are auto-shrunk into
// minimal reproducers; the run ends with a boundary report — the
// tightest observed margin per family × metric — that pefbenchdiff can
// diff run over run.
//
// Every draw is hash-keyed by (seed, generation, slot) and all steering
// is single-threaded, so a fixed-seed search is byte-identical for any
// -workers, -lanewidth and -lockstep setting.
//
//	pefsearch                                  # 8 generations of 256, seed 1
//	pefsearch -seed 7 -generations 20 -json    # machine-readable boundary report
//	pefsearch -family-weights bernoulli=3,markov=1
//
//	# checkpoint/resume: halt mid-search, resume — report byte-identical
//	pefsearch -generations 10 -checkpoint s.json -halt-after 4
//	pefsearch -resume s.json
//
// Flags:
//
//	-seed N            search seed (default 1); keys every deterministic draw
//	-generations N     generations to run (default 8)
//	-generation-size N specs per generation (default 256)
//	-warmup N          leading uniformly-sampled generations that initialize
//	                   the bandit and fix the bottom-quartile margin
//	                   threshold (default min(2, generations))
//	-mutation-share P  percent of each post-warmup generation spent mutating
//	                   the near-violation corpus (default 50; -1 disables)
//	-corpus-size N     near-violation corpus bound (default 64)
//	-max-minimize N    violations shrunk into minimal reproducers
//	                   (default 4; -1 disables)
//	-families F,G      restrict the explorable-family pool
//	-family-weights W  weighted pool, e.g. "bernoulli=3,periodic=1"
//	                   (mutually exclusive with -families)
//	-minring/-maxring  sampled ring bounds (defaults 4/16)
//	-maxrobots N       largest sampled team (default 5)
//	-workers M         worker pool size; <1 means GOMAXPROCS
//	-lockstep          bit-parallel lane engine (default true)
//	-lanewidth N       lane packing width (default 1024)
//	-json              emit the boundary-report document instead of text
//	-checkpoint P      atomically write a resumable search checkpoint to
//	                   P (via P.tmp) on finish or halt
//	-checkpoint-every N
//	                   additionally write a rotating checkpoint (P.1, P.2;
//	                   fsync + atomic rename) every N generations
//	-halt-after N      stop cleanly after generation N (requires
//	                   -checkpoint; simulates a kill for resume testing)
//	-resume P          continue the search checkpointed at P (rotation
//	                   fallback to P.1/P.2 when P is corrupt)
//	-progress          print a per-generation progress line to stderr
//	-metrics P         write the final telemetry snapshot (search.* and
//	                   engine counters) to P as JSON
//	-telemetry-addr A  serve the live telemetry snapshot and pprof on A
//	-trace-events P    append search lifecycle events (search-start,
//	                   generation, violation-found, search-end) to P as
//	                   JSONL — byte-identical for any engine configuration
//
// The observability flags never change stdout. The process exits
// non-zero when the search finds any predicate violation, so CI can
// trust the exit code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"pef/internal/durable"
	"pef/internal/scenario"
	"pef/internal/search"
	"pef/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pefsearch:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pefsearch", flag.ContinueOnError)
	var (
		seed       = fs.Uint64("seed", 1, "search seed")
		gens       = fs.Int("generations", 0, "generations to run (default 8)")
		genSize    = fs.Int("generation-size", 0, "specs per generation (default 256)")
		warmup     = fs.Int("warmup", 0, "uniformly-sampled warmup generations (default min(2, generations))")
		mutShare   = fs.Int("mutation-share", 0, "percent of each post-warmup generation spent on corpus mutation (default 50; -1 disables)")
		corpusSize = fs.Int("corpus-size", 0, "near-violation corpus bound (default 64)")
		maxMin     = fs.Int("max-minimize", 0, "violations shrunk into minimal reproducers (default 4; -1 disables)")
		families   = fs.String("families", "", "comma-separated explorable-family pool")
		weights    = fs.String("family-weights", "", "weighted family pool, e.g. \"bernoulli=3,periodic=1\"")
		minRing    = fs.Int("minring", 0, "smallest sampled ring size (default 4)")
		maxRing    = fs.Int("maxring", 16, "largest sampled ring size")
		maxRobots  = fs.Int("maxrobots", 0, "largest sampled team size (default 5)")
		workers    = fs.Int("workers", 0, "worker pool size (<1 means GOMAXPROCS)")
		lockstep   = fs.Bool("lockstep", true, "run shape-aligned specs on the bit-parallel lane engine")
		laneWidth  = fs.Int("lanewidth", 0, "specs batched per worker job for lane packing (<1 means 1024)")
		jsonOut    = fs.Bool("json", false, "emit the boundary-report document instead of the text report")
		checkpoint = fs.String("checkpoint", "", "write a resumable checkpoint to this path on finish or halt")
		ckptEvery  = fs.Int("checkpoint-every", 0, "write a rotating checkpoint every N generations")
		haltAfter  = fs.Int("halt-after", 0, "stop cleanly after this generation (requires -checkpoint)")
		resume     = fs.String("resume", "", "resume the search checkpointed at this path")
		progress   = fs.Bool("progress", false, "print a per-generation progress line to stderr")
		metricsOut = fs.String("metrics", "", "write the final telemetry snapshot to this path as JSON")
		telAddr    = fs.String("telemetry-addr", "", "serve the live telemetry snapshot and pprof on this address (\":0\" picks a free port)")
		traceFile  = fs.String("trace-events", "", "write search lifecycle events to this path as JSONL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *haltAfter < 0 {
		return fmt.Errorf("-halt-after must be >= 0, got %d", *haltAfter)
	}
	if *haltAfter > 0 && *checkpoint == "" {
		return fmt.Errorf("-halt-after requires -checkpoint (a halted search without one is unrecoverable)")
	}
	if *ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", *ckptEvery)
	}
	if *ckptEvery > 0 && *checkpoint == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint (it rotates that path)")
	}

	// When resuming, the search identity comes from the checkpoint;
	// explicitly set flags still apply (conflicts are rejected by the
	// resolver), but flag *defaults* must not shadow checkpointed values.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cfg := search.Config{
		Generations:     *gens,
		GenerationSize:  *genSize,
		Warmup:          *warmup,
		MutationShare:   *mutShare,
		CorpusSize:      *corpusSize,
		MaxMinimize:     *maxMin,
		Workers:         *workers,
		LaneWidth:       *laneWidth,
		DisableLockstep: !*lockstep,
	}
	if *resume != "" {
		ckpt, err := durable.ReadFallback(*resume, search.DecodeCheckpoint, stderr, "pefsearch")
		if err != nil {
			return err
		}
		cfg.Resume = ckpt
	}
	if *resume == "" || explicit["seed"] {
		cfg.Seed = *seed
	}
	if *resume == "" || explicit["minring"] || explicit["maxring"] || explicit["maxrobots"] ||
		explicit["families"] || explicit["family-weights"] {
		cfg.Gen = scenario.GenConfig{
			MinRing:       *minRing,
			MaxRing:       *maxRing,
			MaxRobots:     *maxRobots,
			Families:      *families,
			FamilyWeights: *weights,
		}
	}

	// Observability wiring. None of it touches stdout: boundary reports,
	// JSON documents and checkpoints are byte-identical with these flags
	// on or off.
	var tel *scenario.Telemetry
	if *telAddr != "" || *metricsOut != "" {
		tel = scenario.NewTelemetry()
		cfg.Telemetry = tel
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, tel.Snapshot)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Trace = telemetry.NewTracer(f)
	}

	// The search itself runs under the background context: a signal halts
	// at the next generation boundary (the checkpoint grain) instead of
	// poisoning the in-flight generation with cancellation verdicts.
	var lastCk *search.Checkpoint
	interrupted := false
	cfg.OnGeneration = func(p search.Progress) error {
		if *progress {
			fmt.Fprintf(stderr, "progress: generation %d/%d, %d samples, corpus %d, %d violations\n",
				p.Generation, p.Generations, p.Samples, p.CorpusSize, p.Violations)
		}
		if *checkpoint != "" {
			lastCk = p.Checkpoint()
			if *ckptEvery > 0 && p.Generation%*ckptEvery == 0 {
				data, err := lastCk.Encode()
				if err != nil {
					return err
				}
				if err := durable.WriteRotating(*checkpoint, data); err != nil {
					return err
				}
				cfg.Trace.Emit("checkpoint-written", map[string]any{"kind": "rotating", "done": p.Generation})
			}
		}
		if ctx.Err() != nil {
			interrupted = true
			return search.ErrHalted
		}
		if *haltAfter > 0 && p.Generation >= *haltAfter {
			return search.ErrHalted
		}
		return nil
	}

	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if res.Halted && *checkpoint == "" {
		return fmt.Errorf("interrupted after %d generations (no -checkpoint set, progress discarded)", res.Generations)
	}
	if *checkpoint != "" && lastCk != nil {
		data, err := lastCk.Encode()
		if err != nil {
			return err
		}
		if err := durable.WriteAtomic(*checkpoint, data); err != nil {
			return err
		}
		cfg.Trace.Emit("checkpoint-written", map[string]any{"kind": "final", "done": res.Generations})
	}
	if err := cfg.Trace.Err(); err != nil {
		return err
	}
	if *metricsOut != "" {
		data, err := json.MarshalIndent(tel.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if res.Halted {
		if interrupted {
			// Non-nil so the exit code reflects the interruption, but the
			// search state is safe: the clean prefix is checkpointed.
			return fmt.Errorf("interrupted after %d generations; resume with -resume %s", res.Generations, *checkpoint)
		}
		fmt.Fprintf(stdout, "halted after %d of %d generations; resume with -resume %s\n",
			res.Generations, generationsTarget(cfg), *checkpoint)
		return nil
	}
	if *jsonOut {
		if err := res.WriteJSON(stdout); err != nil {
			return err
		}
	} else if err := res.WriteReport(stdout); err != nil {
		return err
	}
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("%d violation(s) found across %d samples", n, res.Samples)
	}
	return nil
}

// generationsTarget resolves the configured generation count for the
// halt message (the checkpoint wins on resume, default 8).
func generationsTarget(cfg search.Config) int {
	switch {
	case cfg.Generations > 0:
		return cfg.Generations
	case cfg.Resume != nil:
		return cfg.Resume.Generations
	default:
		return 8
	}
}
