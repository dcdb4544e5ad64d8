package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pef/internal/scenario"
	"pef/internal/search"
)

// runSearch hunts the theorem boundary: a coverage-guided,
// generational scenario search that runs blocks of specs through the
// campaign engine, reads back the per-family predicate margins
// (cover-time slack, revisit-gap headroom, confinement headroom), and
// steers the next generation's budget toward the tightest margins — a
// seeded UCB bandit chooses among the registered explorable dynamics
// families, and a near-violation corpus of the lowest-margin surviving
// specs is mutated through the parameter space (ring and team nudges,
// declared-parameter jiggles, reseeds). Violations are auto-shrunk into
// minimal reproducers; the run ends with a boundary report — the
// tightest observed margin per family × metric — that pef benchdiff can
// diff run over run.
//
// Every draw is hash-keyed by (seed, generation, slot) and all steering
// is single-threaded, so a fixed-seed search is byte-identical for any
// -workers setting. A generation runs through the campaign engine's fixed
// route (blocks of up to 1024 specs, lanes where eligible, the scalar
// oracle otherwise; see runScenarios), fanned out over the workers.
//
//	pef search                                  # 8 generations of 256, seed 1
//	pef search -seed 7 -generations 20 -json    # machine-readable boundary report
//	pef search -family-weights bernoulli=3,markov=1
//
//	# checkpoint/resume: halt mid-search, resume — report byte-identical
//	pef search -generations 10 -checkpoint s.json -halt-after 4
//	pef search -resume s.json
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
//	-progress N        print a progress line to stderr every N generations
//	-metrics P         write the final telemetry snapshot (search.* and
//	                   engine counters) to P as JSON
//	-telemetry-addr A  serve the live telemetry snapshot and pprof on A
//	-trace-events P    append search lifecycle events (search-start,
//	                   generation, violation-found, search-end) to P as
//	                   JSONL — byte-identical for any engine configuration
//
// The observability flags never change stdout. The process exits
// non-zero when the search finds any predicate violation, so CI can
// trust the exit code. SIGINT/SIGTERM halt the search at the next
// generation boundary, checkpointed under -checkpoint; a second signal
// kills the process.
func runSearch(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("search", stderr)
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
		jsonOut    = fs.Bool("json", false, "emit the boundary-report document instead of the text report")
		ck         = addCheckpointFlags(fs, "search", "generations")
		progress   = addProgress(fs, "generations")
		metricsOut = fs.String("metrics", "", "write the final telemetry snapshot to this path as JSON")
		obs        = addObservability(fs, "search")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := ck.validate(); err != nil {
		return err
	}
	if err := progress.validate(); err != nil {
		return err
	}

	// When resuming, the search identity comes from the checkpoint;
	// explicitly set flags still apply (conflicts are rejected by the
	// resolver), but flag *defaults* must not shadow checkpointed values.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cfg := search.Config{
		Generations:    *gens,
		GenerationSize: *genSize,
		Warmup:         *warmup,
		MutationShare:  *mutShare,
		CorpusSize:     *corpusSize,
		MaxMinimize:    *maxMin,
		Workers:        *workers,
	}
	var err error
	if cfg.Resume, err = resumeFrom(ck, search.DecodeCheckpoint, stderr); err != nil {
		return err
	}
	fresh := ck.resume == ""
	if fresh || explicit["seed"] {
		cfg.Seed = *seed
	}
	if fresh || explicit["minring"] || explicit["maxring"] || explicit["maxrobots"] ||
		explicit["families"] || explicit["family-weights"] {
		cfg.Gen = scenario.GenConfig{
			MinRing:       *minRing,
			MaxRing:       *maxRing,
			MaxRobots:     *maxRobots,
			Families:      *families,
			FamilyWeights: *weights,
		}
	}

	var tel *scenario.Telemetry
	if obs.addr != "" || *metricsOut != "" {
		tel = scenario.NewTelemetry()
		cfg.Telemetry = tel
	}
	defer obs.close()
	if cfg.Trace, err = obs.start(tel.Snapshot, stderr); err != nil {
		return err
	}

	// The search itself runs under the background context: a signal halts
	// at the next generation boundary (the checkpoint grain) instead of
	// poisoning the in-flight generation with cancellation verdicts.
	var lastCk *search.Checkpoint
	interrupted := false
	target := 0 // the resolved generation count, for the halt message
	cfg.OnGeneration = func(p search.Progress) error {
		target = p.Generations
		if progress.due(p.Generation) {
			fmt.Fprintf(stderr, "progress: generation %d/%d, %d samples, corpus %d, %d violations\n",
				p.Generation, p.Generations, p.Samples, p.CorpusSize, p.Violations)
		}
		if ck.path != "" {
			lastCk = p.Checkpoint()
			if ck.rotates(p.Generation) {
				if err := ck.save(cfg.Trace, "rotating", p.Generation, lastCk.Encode); err != nil {
					return err
				}
			}
		}
		if ctx.Err() != nil {
			interrupted = true
			return search.ErrHalted
		}
		if ck.halt > 0 && p.Generation >= ck.halt {
			return search.ErrHalted
		}
		return nil
	}

	res, err := search.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if res.Halted && ck.path == "" {
		return fmt.Errorf("interrupted after %d generations (no -checkpoint set, progress discarded)", res.Generations)
	}
	if ck.path != "" && lastCk != nil {
		if err := ck.save(cfg.Trace, "final", res.Generations, lastCk.Encode); err != nil {
			return err
		}
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
			return fmt.Errorf("interrupted after %d generations; resume with -resume %s", res.Generations, ck.path)
		}
		fmt.Fprintf(stdout, "halted after %d of %d generations; resume with -resume %s\n",
			res.Generations, target, ck.path)
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
