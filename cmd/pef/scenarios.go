package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pef/internal/harness"
	"pef/internal/lease"
	"pef/internal/scenario"
)

// runScenarios sweeps generated scenarios through the property
// oracle: a seeded generator samples the scenario space (ring size, team,
// algorithm, placement, dynamics family and parameters, horizon), each
// sample runs through the simulator, and the oracle checks the paper's
// predicates — exploration where Table 1 says possible, confinement where
// its adversaries apply. Campaigns stream through the batch worker pool
// with bounded memory (verdicts fold into an online aggregate, never a
// slice) and their output is byte-identical for any worker count.
//
// Every name the tool accepts — generators, dynamics families, algorithms,
// oracle properties — resolves through the scenario extension registry;
// -list prints the full enumeration.
//
//	pef scenarios                               # 100 uniform scenarios, seed 1
//	pef scenarios -count 1000 -seeds 4          # 4000 scenarios, seeds 1..4
//	pef scenarios -family boundary -json        # machine-readable sweep output
//	pef scenarios -family registered \
//	              -families periodic,compose:union  # combinator families only
//	pef scenarios -list                         # list the registry contents
//
//	# checkpoint/resume: run half, stop, resume — final report identical
//	pef scenarios -count 1000 -checkpoint c.json -halt-after 500
//	pef scenarios -resume c.json
//
//	# multi-process sharding: run disjoint blocks anywhere, then merge —
//	# the merged report is byte-identical to the single-process run
//	pef scenarios -count 1000 -shard-index 0 -shard-count 2 -checkpoint a.json
//	pef scenarios -count 1000 -shard-index 1 -shard-count 2 -checkpoint b.json
//	pef scenarios -merge a.json b.json
//
//	# fault-tolerant fleet: join a pef coord lease fabric as a worker —
//	# the coordinator assigns blocks, tracks heartbeats, and re-leases
//	# work from dead workers (see runCoord)
//	pef scenarios -worker-coord http://127.0.0.1:7077 -worker-id w1
//
// Flags:
//
//	-count N         scenarios generated per seed (default 100)
//	-seed N          base generator seed (default 1)
//	-seeds N         sweep N consecutive generator seeds starting at -seed
//	-workers M       worker pool size; <1 means GOMAXPROCS. Output is
//	                 byte-identical for any worker count.
//	-family F        generator: uniform, boundary, markov, adversarial,
//	                 registered (see -list)
//	-families F,G    restrict the "registered" generator to these
//	                 registered explorable families
//	-family-weights  bias the "registered" generator's family pool,
//	                 e.g. "bernoulli=3,periodic=1" (exclusive with
//	                 -families; equal weights sample identically to it)
//	-maxring N       largest sampled ring size (default 16)
//	-lockstep        run eligible scenarios on the bit-parallel lockstep
//	                 engine, up to 64 per machine word
//	                 (default true; -lockstep=false forces the scalar
//	                 engine — output is byte-identical either way)
//	-lanewidth N     scenarios batched per worker job for lane packing
//	                 (default 1024; ignored with -lockstep=false)
//	-timings         record the campaign's wall time: a trailing line in
//	                 report mode, the "millis" field in -json mode (the
//	                 only field that varies run to run)
//	-json            emit the versioned campaign document (for BENCH_*.json)
//	-list            list the registry contents (generators, families,
//	                 algorithms, properties) and exit
//	-checkpoint P    atomically write a resumable campaign checkpoint to
//	                 P (via P.tmp) when the campaign finishes or halts
//	-checkpoint-every N
//	                 additionally write a rotating checkpoint (P.1, with
//	                 the previous one kept at P.2; fsync + atomic rename)
//	                 every N aggregated scenarios, so a very long sweep
//	                 survives a kill without waiting for the final write
//	-halt-after N    stop after aggregating N scenarios (requires
//	                 -checkpoint; simulates a kill for resume testing)
//	-resume P        continue the campaign checkpointed at P: its
//	                 generator, bounds, count, seeds and shard block are
//	                 adopted, the finished prefix is skipped, and the
//	                 final report is byte-identical to an uninterrupted
//	                 run. Checkpoints carry a content checksum; when P is
//	                 corrupt or truncated, the resume falls back to the
//	                 rotation files (P.1, then P.2) with a loud stderr
//	                 warning instead of failing or silently restarting.
//	-shard-index I   with -shard-count, run only shard I (0-based) of the
//	-shard-count C   canonical stream: the contiguous block
//	                 [I·total/C, (I+1)·total/C). Requires -checkpoint so
//	                 the block's aggregate can be merged later.
//	-merge A B ...   fold completed per-shard checkpoints into the
//	                 whole-campaign report (they must tile the stream) and
//	                 exit with the usual violation status
//	-minimize        shrink each violation to a minimal reproducer and
//	                 append it to the report (report mode only)
//	-progress N      print a progress line to stderr every N aggregated
//	                 scenarios (stderr only: stdout stays byte-identical)
//	-telemetry-addr A
//	                 serve the live telemetry snapshot (JSON under
//	                 /metrics) and net/http/pprof on A (":0" picks a free
//	                 port; the chosen address is printed to stderr)
//	-trace-events P  append structured campaign lifecycle events
//	                 (campaign-start, block-retired, checkpoint-written,
//	                 campaign-end) to P as JSONL; the trace carries
//	                 monotonic sequence numbers and no wall clocks, so it
//	                 is byte-identical for any worker count
//
//	-worker-coord U  worker mode: join the pef coord lease fabric at base
//	                 URL U and run granted blocks until the campaign is
//	                 done. The coordinator owns the campaign identity, so
//	                 every campaign-shaping flag conflicts; only engine
//	                 knobs (-workers, -lockstep, -lanewidth) apply.
//	-worker-id ID    worker name in the lease fabric (default
//	                 worker-<pid>)
//	-chaos-seed N    arm the deterministic fault schedule: per the seeded
//	                 plan the worker kills, stalls, or double-acks leases
//	                 (lease.Chaos), chaos-proving the coordinator's
//	                 recovery — the merged report must stay byte-identical
//
// The observability flags never change stdout: reports, JSON documents
// and checkpoints are byte-identical with them on or off.
//
// SIGINT/SIGTERM interrupt a campaign gracefully: the stream stops at a
// verdict boundary, in-flight runs drain, and with -checkpoint set the
// clean prefix is written as a final resumable checkpoint before the
// process exits non-zero. A second signal kills the process.
//
// The process exits non-zero when any scenario violates its predicate or
// errors, so CI can trust the exit code.
func runScenarios(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("scenarios", stderr)
	var (
		count     = fs.Int("count", 100, "scenarios generated per seed")
		seed      = fs.Uint64("seed", 1, "base generator seed")
		seeds     = fs.Int("seeds", 1, "number of consecutive generator seeds, starting at -seed")
		workers   = fs.Int("workers", 0, "worker pool size (<1 means GOMAXPROCS)")
		family    = fs.String("family", "uniform", "generator (see -list)")
		families  = fs.String("families", "", "comma-separated family pool for the registered generator")
		weights   = fs.String("family-weights", "", "weighted family pool for the registered generator, e.g. \"bernoulli=3,periodic=1\"")
		maxRing   = fs.Int("maxring", 16, "largest sampled ring size")
		lockstep  = fs.Bool("lockstep", true, "run eligible scenarios on the bit-parallel lane engine")
		laneWidth = fs.Int("lanewidth", 0, "scenarios batched per worker job for lane packing (<1 means 1024)")
		timings   = fs.Bool("timings", false, "record the campaign's wall time in the output")
		jsonOut   = fs.Bool("json", false, "emit the versioned campaign document")
		list      = fs.Bool("list", false, "list the registry contents and exit")
		ck        = addCheckpointFlags(fs, "campaign", "aggregated scenarios")
		shardIdx  = fs.Int("shard-index", 0, "run only this shard of the campaign (with -shard-count)")
		shardCnt  = fs.Int("shard-count", 0, "number of contiguous shards the campaign is split into")
		merge     = fs.Bool("merge", false, "merge completed per-shard checkpoint files (positional args) into one report")
		minimize  = fs.Bool("minimize", false, "append a minimal reproducer per violation (report mode only)")
		progress  = fs.Int("progress", 0, "print a progress line to stderr every N aggregated scenarios")
		obs       = addObservability(fs, "campaign")
		workerURL = fs.String("worker-coord", "", "join the pef coord lease fabric at this base URL as a worker")
		workerID  = fs.String("worker-id", "", "worker name in the lease fabric (default worker-<pid>)")
		chaosSeed = fs.Uint64("chaos-seed", 0, "arm the deterministic fault schedule with this seed (worker mode only; 0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return writeList(stdout)
	}
	// When resuming, the campaign identity comes from the checkpoint;
	// explicitly set flags still apply (and conflicts are rejected), but
	// flag *defaults* must not shadow the checkpointed values.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cfg := scenario.CampaignConfig{
		Workers:         *workers,
		ShardIndex:      *shardIdx,
		ShardCount:      *shardCnt,
		DisableLockstep: !*lockstep,
		LaneWidth:       *laneWidth,
	}
	if *workerURL != "" {
		// Worker mode: the campaign identity comes from the coordinator's
		// grants, so every local campaign-shaping flag is a conflict.
		for _, name := range []string{"count", "seed", "seeds", "family", "families", "family-weights", "maxring",
			"checkpoint", "checkpoint-every", "halt-after", "resume", "shard-index", "shard-count",
			"merge", "minimize", "json", "timings"} {
			if explicit[name] {
				return fmt.Errorf("-%s conflicts with -worker-coord (the coordinator owns the campaign; workers only bring -workers/-lockstep/-lanewidth)", name)
			}
		}
		return runWorker(ctx, strings.TrimRight(*workerURL, "/"), *workerID, cfg, *chaosSeed, stderr)
	}
	if *chaosSeed != 0 {
		return fmt.Errorf("-chaos-seed requires -worker-coord (chaos is injected on the worker side)")
	}
	if *workerID != "" {
		return fmt.Errorf("-worker-id requires -worker-coord")
	}
	if *merge {
		return runMerge(fs.Args(), *jsonOut, stdout)
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v (checkpoint files are only positional with -merge)", fs.Args())
	}
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", *count)
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if err := ck.validate(); err != nil {
		return err
	}
	if *shardCnt > 0 && ck.path == "" {
		return fmt.Errorf("-shard-count requires -checkpoint (a shard's aggregate is merged from its checkpoint)")
	}
	if *minimize && *jsonOut {
		return fmt.Errorf("-minimize applies to the report mode, not -json")
	}
	if *progress < 0 {
		return fmt.Errorf("-progress must be >= 0, got %d", *progress)
	}

	var err error
	if cfg.Resume, err = resumeFrom(ck, scenario.DecodeCheckpoint, stderr); err != nil {
		return err
	}
	fresh := ck.resume == ""
	if fresh || explicit["family"] {
		cfg.Generator = *family
	}
	if fresh || explicit["count"] {
		cfg.Count = *count
	}
	if fresh || explicit["seed"] || explicit["seeds"] {
		cfg.Seeds = harness.Seeds(*seed, *seeds)
	}
	if fresh || explicit["maxring"] || explicit["families"] || explicit["family-weights"] {
		cfg.Gen = scenario.GenConfig{MaxRing: *maxRing, Families: *families, FamilyWeights: *weights}
	}

	var tel *scenario.Telemetry
	if obs.addr != "" {
		tel = scenario.NewTelemetry()
		cfg.Telemetry = tel
	}
	defer obs.close()
	if cfg.Trace, err = obs.start(tel.Snapshot, stderr); err != nil {
		return err
	}

	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		return err
	}
	start := agg.Start() + agg.Done()
	halted := false
	interrupted := false
	began := time.Now()
	// The campaign itself runs under the background context: on a signal
	// we stop consuming at a verdict boundary instead, which cancels the
	// pool, drains in-flight runs, and leaves the aggregate covering a
	// clean prefix — exactly what a resumable checkpoint needs. Killing
	// the stream's context would instead flood the tail of the stream
	// with cancellation verdicts and poison the aggregate.
	for v, serr := range scenario.StreamCampaign(context.Background(), cfg) {
		if serr != nil && v.ID == "" {
			return serr // configuration failure: nothing ran
		}
		agg.Add(v)
		ran := agg.Start() + agg.Done() - start
		if *progress > 0 && ran%*progress == 0 {
			fmt.Fprintf(stderr, "progress: %d/%d scenarios, %d violations\n",
				agg.Done(), agg.End()-agg.Start(), len(agg.Violations()))
		}
		if ck.rotates(ran) {
			if err := ck.save(cfg.Trace, "rotating", agg.Done(), agg.Checkpoint().Encode); err != nil {
				return err
			}
		}
		if ctx.Err() != nil {
			interrupted = true
			halted = true
			break
		}
		if ck.halt > 0 && ran >= ck.halt {
			halted = true
			break
		}
	}
	if interrupted && ck.path == "" {
		return fmt.Errorf("interrupted after %d of %d scenarios (no -checkpoint set, progress discarded)",
			agg.Done(), agg.End()-agg.Start())
	}
	if ck.path != "" {
		if err := ck.save(cfg.Trace, "final", agg.Done(), agg.Checkpoint().Encode); err != nil {
			return err
		}
	}
	if halted {
		cfg.Trace.Emit("campaign-end", map[string]any{"done": agg.Done(), "halted": true})
		if err := cfg.Trace.Err(); err != nil {
			return err
		}
		if interrupted {
			// Non-nil so the exit code reflects the interruption, but the
			// campaign state is safe: in-flight runs drained and the clean
			// prefix is checkpointed.
			return fmt.Errorf("interrupted after %d of %d scenarios; resume with -resume %s",
				agg.Done(), agg.End()-agg.Start(), ck.path)
		}
		fmt.Fprintf(stdout, "halted after %d of %d scenarios; resume with -resume %s\n",
			agg.Done(), agg.End()-agg.Start(), ck.path)
		return nil
	}

	elapsed := time.Since(began)
	if *timings {
		agg.SetWallMillis(elapsed.Milliseconds())
	}
	if tel != nil {
		tel.Registry().Counter("campaign." + agg.Generator + ".millis").Add(elapsed.Milliseconds())
	}
	cfg.Trace.Emit("campaign-end", map[string]any{"done": agg.Done(), "violations": len(agg.Violations())})
	if err := cfg.Trace.Err(); err != nil {
		return err
	}
	var trailer strings.Builder
	if *timings && !*jsonOut {
		fmt.Fprintf(&trailer, "wall time: %d ms\n", elapsed.Milliseconds())
	}
	if *minimize {
		for _, v := range agg.Violations() {
			m := scenario.Minimize(v.Spec)
			fmt.Fprintf(&trailer, "\nminimal reproducer for %s:\n  %s\n", v.ID, m.ID())
			if enc, err := m.Encode(); err == nil {
				fmt.Fprintf(&trailer, "  %s\n", enc)
			}
		}
	}
	return writeCampaign(stdout, agg, *jsonOut, trailer.String())
}

// writeList enumerates the extension registry: the generators plus every
// registered family, algorithm and oracle property, in canonical
// (registration) order.
func writeList(w io.Writer) error {
	r := scenario.DefaultRegistry()
	var b strings.Builder
	b.WriteString("generators:\n")
	for _, g := range scenario.Generators() {
		fmt.Fprintf(&b, "  %-20s %s\n", g.Name, g.Description)
	}
	b.WriteString("families:\n")
	for _, name := range r.FamilyNames() {
		d, _ := r.Family(name)
		fmt.Fprintf(&b, "  %-20s %s\n", name, d.Description)
	}
	b.WriteString("algorithms:\n")
	for _, name := range r.AlgorithmNames() {
		d, _ := r.AlgorithmDescriptor(name)
		fmt.Fprintf(&b, "  %-20s %s\n", name, d.Description)
	}
	b.WriteString("properties:\n")
	for _, name := range r.PropertyNames() {
		p, _ := r.Property(name)
		fmt.Fprintf(&b, "  %-20s %s\n", name, p.Description)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// runMerge folds completed per-shard checkpoints into the whole-campaign
// report, byte-identical to a single-process run.
func runMerge(paths []string, jsonOut bool, stdout io.Writer) error {
	if len(paths) < 1 {
		return fmt.Errorf("-merge needs at least one checkpoint file")
	}
	ckpts := make([]*scenario.Checkpoint, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if ckpts[i], err = scenario.DecodeCheckpoint(data); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	agg, err := scenario.MergeCheckpoints(ckpts...)
	if err != nil {
		return err
	}
	return writeCampaign(stdout, agg, jsonOut, "")
}

// runWorker joins the lease fabric at coordURL and runs granted blocks
// until the coordinator reports the campaign done. Each block executes
// as the contiguous [start, end) shard of the canonical stream — exactly
// what -shard-index/-shard-count would run — and is delivered back as an
// encoded checkpoint under the grant's fencing token.
//
// engine carries the engine knobs applied to every block (worker count,
// lane width and engine choice, all byte-invisible); the campaign
// identity always comes from the grant — workers bring compute, not
// configuration. A non-zero chaosSeed arms the deterministic fault schedule
// (lease.Chaos): the worker then kills, stalls, or double-acks leases
// per the seeded plan, for chaos-testing the coordinator's recovery. The
// final merged report must stay byte-identical either way.
func runWorker(ctx context.Context, coordURL, id string, engine scenario.CampaignConfig, chaosSeed uint64, stderr io.Writer) error {
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var chaos *lease.Chaos
	if chaosSeed != 0 {
		chaos = &lease.Chaos{Seed: chaosSeed}
	}
	return lease.Work(ctx, lease.WorkerConfig{
		URL:   coordURL,
		ID:    id,
		Chaos: chaos,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "pef scenarios: "+format+"\n", args...)
		},
		Run: func(ctx context.Context, g lease.Grant) ([]byte, error) {
			cfg := engine
			cfg.Generator = g.Campaign.Generator
			cfg.Gen = g.Campaign.Gen
			cfg.Count = g.Campaign.Count
			cfg.Seeds = g.Campaign.Seeds
			cfg.ShardIndex = g.Block
			cfg.ShardCount = g.Campaign.Blocks
			agg, err := scenario.NewAggregate(cfg)
			if err != nil {
				return nil, err
			}
			for v, serr := range scenario.StreamCampaign(ctx, cfg) {
				if serr != nil {
					// Configuration failure or cancellation (a fenced lease
					// cancels the run context): the block is abandoned, never
					// acked with a partial aggregate.
					return nil, serr
				}
				agg.Add(v)
			}
			return agg.Checkpoint().Encode()
		},
	})
}
