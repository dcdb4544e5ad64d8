package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"pef/internal/harness"
	"pef/internal/scenario"
	"pef/internal/search"
	"pef/internal/telemetry"
)

// sizes are one workload's input sizes; zero fields do not apply to it.
type sizes struct {
	Workers int `json:"workers"`
	// Seeds generator seeds of Count specs each (campaigns, paper sweep).
	Seeds int `json:"seeds,omitempty"`
	Count int `json:"count,omitempty"`
	// Searches of Generations generations of GenerationSize specs each
	// (search).
	Searches       int `json:"searches,omitempty"`
	Generations    int `json:"generations,omitempty"`
	GenerationSize int `json:"generationSize,omitempty"`
	// CampaignRequests windows of Window seeds × Count specs (serve client
	// A) and RunRequests single-spec requests (serve client B).
	CampaignRequests int `json:"campaignRequests,omitempty"`
	Window           int `json:"window,omitempty"`
	RunRequests      int `json:"runRequests,omitempty"`
}

// workload is one set of inputs the benchmark runs. run executes one
// iteration inside a child process.
type workload struct {
	name, why   string
	full, smoke sizes
	run         func(ctx context.Context, it *iteration) error
}

// The sizes below keep one iteration near 0.5–2 s on a 2-CPU host, so a
// 10-second pass holds 5–20 iterations for the best-iteration estimators
// (see measure; bench/README.md records the measurements).
var workloads = []workload{
	{
		name:  "paper-sweep",
		why:   "harness.RunBatch over every experiment: the Table 1 and Figure 1-3 reproduction, scalar fsync and adversary constructions",
		full:  sizes{Workers: 2, Seeds: 4},
		smoke: sizes{Workers: 2, Seeds: 1},
		run:   runPaperSweep,
	},
	{
		name:  "campaign-uniform",
		why:   "flagship lane-engine load: most specs take the lockstep path and most lanes the word-graph E_t fast path",
		full:  sizes{Workers: 2, Seeds: 4, Count: 1000},
		smoke: sizes{Workers: 2, Seeds: 2, Count: 60},
		run:   runCampaign("uniform"),
	},
	{
		name:  "campaign-markov",
		why:   "all specs on the lockstep path but every lane falls back to per-lane E_t: isolates dyngraph",
		full:  sizes{Workers: 2, Seeds: 4, Count: 500},
		smoke: sizes{Workers: 2, Seeds: 2, Count: 30},
		run:   runCampaign("markov"),
	},
	{
		name:  "campaign-adversarial",
		why:   "all specs on the scalar oracle (adaptive adversaries): bypasses the lockstep engine",
		full:  sizes{Workers: 2, Seeds: 4, Count: 500},
		smoke: sizes{Workers: 2, Seeds: 2, Count: 30},
		run:   runCampaign("adversarial"),
	},
	{
		name:  "serve-sliding",
		why:   "pefserve with its verdict cache under two closed-loop clients: sliding campaign windows plus repeated single-spec runs",
		full:  sizes{Workers: 2, CampaignRequests: 15, Window: 4, Count: 100, RunRequests: 1500},
		smoke: sizes{Workers: 2, CampaignRequests: 4, Window: 2, Count: 20, RunRequests: 40},
		run:   runServe,
	},
	{
		name:  "search",
		why:   "coverage-guided search: small engine blocks, one pool job per generation, bandit and corpus planning",
		full:  sizes{Workers: 2, Searches: 4, Generations: 6, GenerationSize: 256},
		smoke: sizes{Workers: 2, Searches: 2, Generations: 3, GenerationSize: 32},
		run:   runSearch,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iteration is the child-side state of one measured run of a workload.
type iteration struct {
	seed      uint64
	sz        sizes
	setupOnly bool
	// tr is nil on the untraced pass; root is the iteration's root span.
	tr   *tracer
	root int

	submit time.Time
	res    childResult
	digest hash.Hash
}

// start marks the moment the first unit of work is submitted, which ends
// set-up. It returns false when the child only measures set-up, in which
// case the workload returns without running.
func (it *iteration) start() bool {
	it.submit = time.Now()
	if it.setupOnly {
		return false
	}
	it.root = it.tr.begin("iteration", 0, -1, "")
	return true
}

// sinceSubmit is the wall time since start, in ms.
func (it *iteration) sinceSubmit() float64 {
	return float64(time.Since(it.submit).Nanoseconds()) / 1e6
}

// problem records a failed correctness check.
func (it *iteration) problem(format string, args ...any) {
	const keep = 20
	if len(it.res.Problems) < keep {
		it.res.Problems = append(it.res.Problems, fmt.Sprintf(format, args...))
	}
}

// verdict counts one campaign verdict; violations and error verdicts are
// failed operations.
func (it *iteration) verdict(v scenario.Verdict) {
	it.res.Ops++
	if v.Err != "" || !v.OK {
		it.res.Failed++
		it.problem("verdict %s: outcome=%s err=%q violation=%q", v.ID, v.Outcome, v.Err, v.Violation)
	}
}

// report streams the workload's report writers into the digest, inside a
// span named layer.
func (it *iteration) report(layer string, writers ...func(io.Writer) error) error {
	sp := it.tr.begin(layer, it.root, -1, "report")
	defer it.tr.end(sp)
	for _, w := range writers {
		if err := w(it.digest); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	return nil
}

func newDigest() hash.Hash { return sha256.New() }

func digestHex(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// seedBlock returns the n consecutive generator seeds of workload seed s:
// s=1 gives 1..n (the CLIs' defaults), s=2 gives n+1..2n, and so on, so
// different workload seeds draw disjoint inputs.
func seedBlock(s uint64, n int) []uint64 {
	return harness.Seeds((s-1)*uint64(n)+1, n)
}

// laneWidth is the campaign engine's default block size (specs per pool
// job); the traced campaign pass blocks the stream exactly like it.
const laneWidth = 1024

func runCampaign(generator string) func(context.Context, *iteration) error {
	return func(ctx context.Context, it *iteration) error {
		if it.tr != nil {
			return runCampaignTraced(ctx, it, generator)
		}
		cfg := scenario.CampaignConfig{
			Registry:  scenario.DefaultRegistry(),
			Generator: generator,
			Count:     it.sz.Count,
			Seeds:     seedBlock(it.seed, it.sz.Seeds),
			Workers:   it.sz.Workers,
		}
		if _, err := scenario.NewGenerator(generator); err != nil {
			return err
		}
		agg, err := scenario.NewAggregate(cfg)
		if err != nil {
			return err
		}
		if !it.start() {
			return nil
		}
		for v, err := range scenario.StreamCampaign(ctx, cfg) {
			if err != nil {
				return err
			}
			agg.Add(v)
			it.verdict(v)
		}
		if err := it.report("scenario.aggregate", agg.WriteReport, agg.WriteJSON); err != nil {
			return err
		}
		// The campaign is the request: its user waits for the report.
		it.res.Latencies = append(it.res.Latencies, it.sinceSubmit())
		return nil
	}
}

// runCampaignTraced runs the same campaign as StreamCampaign, but drives
// harness.StreamPool itself with scenario.RunBlock as the job, so that
// generation, dispatch, engine blocks and the fold each get their own
// spans. The report bytes must equal the untraced pass's.
func runCampaignTraced(ctx context.Context, it *iteration, generator string) error {
	reg := scenario.DefaultRegistry()
	tel := scenario.NewTelemetry()
	seeds := seedBlock(it.seed, it.sz.Seeds)
	cfg := scenario.CampaignConfig{Registry: reg, Generator: generator, Count: it.sz.Count, Seeds: seeds}
	if _, err := scenario.NewGenerator(generator); err != nil {
		return err
	}
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		return err
	}
	workers := it.sz.Workers
	pm := harness.NewPoolMetrics(telemetry.NewRegistry(), "pool")
	total := it.sz.Count * len(seeds)
	jobs := (total + laneWidth - 1) / laneWidth
	window := 8 * workers // the campaign engine's window
	ring := make([][]scenario.Spec, window)
	var pending []scenario.Spec
	next := 0
	var genErr error
	slots := workerSlots(workers)
	opts := scenario.RunOptions{Registry: reg, Telemetry: tel}
	if !it.start() {
		return nil
	}
	for item := range harness.StreamPool(ctx, harness.PoolConfig[[]scenario.Verdict]{
		Total:   jobs,
		Workers: workers,
		Window:  window,
		Metrics: pm,
		Feed: func(i int) {
			n := min(laneWidth, total-i*laneWidth)
			for len(pending) < n && genErr == nil {
				sp := it.tr.begin("scenario.generate", it.root, -1, fmt.Sprint(seeds[next]))
				specs, err := reg.Generate(generator, cfg.Gen, seeds[next], it.sz.Count)
				it.tr.end(sp)
				genErr = err
				pending = append(pending, specs...)
				next++
			}
			n = min(n, len(pending))
			ring[i%window] = append(ring[i%window][:0], pending[:n]...)
			pending = pending[n:]
		},
		Run: func(i int) []scenario.Verdict {
			w := <-slots
			defer func() { slots <- w }()
			job := it.tr.begin("harness.pool.job", it.root, w, "")
			eng := it.tr.begin("scenario.engine", job, w, "RunBlock")
			vs := scenario.RunBlock(ctx, ring[i%window], opts)
			it.tr.end(eng)
			it.tr.end(job)
			return vs
		},
	}) {
		if item.Err != nil {
			return item.Err
		}
		sp := it.tr.begin("scenario.aggregate", it.root, -1, "fold")
		for _, v := range item.R {
			agg.Add(v)
			it.verdict(v)
		}
		it.tr.end(sp)
	}
	if genErr != nil {
		return genErr
	}
	if err := it.report("scenario.aggregate", agg.WriteReport, agg.WriteJSON); err != nil {
		return err
	}
	it.res.Latencies = append(it.res.Latencies, it.sinceSubmit())

	spans := it.tr.snapshot()
	l := it.layers()
	sum, err := summarize(spans, "iteration")
	if err != nil {
		return err
	}
	jobsRun, busy, tail := poolStats(spans, "harness.pool.job", workers)
	l["harness.pool.jobs"] = float64(jobsRun)
	l["harness.pool.busy_ratio"] = busy
	l["harness.pool.tail_idle_ms"] = tail
	l["harness.pool.permit_waits"] = float64(pm.PermitWaits.Value())
	l["scenario.generate.ms"] = sum.self["scenario.generate"]
	l["scenario.aggregate.ms"] = sum.self["scenario.aggregate"]
	engineLayers(l, tel.Snapshot(), sum.self["scenario.engine"])
	return nil
}

// workerSlots hands out worker identities 0..n-1. A pool never runs more
// than n jobs at once, so a job holding a slot names the worker running it.
func workerSlots(n int) chan int {
	slots := make(chan int, n)
	for w := 0; w < n; w++ {
		slots <- w
	}
	return slots
}

// layers returns the iteration's per-layer metric map, creating it.
func (it *iteration) layers() map[string]float64 {
	if it.res.Layers == nil {
		it.res.Layers = map[string]float64{}
	}
	return it.res.Layers
}

// engineLayers fills the engine, oracle, fsync and dyngraph metrics from
// a campaign telemetry snapshot. engineMs is the engine's self time from
// RunBlock spans; the scalar oracle's share is what the lane groups
// (engine.lockstepMillis) leave of it. Where the engine runs out of the
// benchmark's reach (search, serve) engineMs is negative and the
// engine's own counters stand in: the scalar share is then the sum of
// family.*.millis, which counts whole milliseconds per run and so
// undercounts sub-millisecond runs.
func engineLayers(l map[string]float64, snap telemetry.Snapshot, engineMs float64) {
	c := snap.Counters
	lockstepMs := float64(c["engine.lockstepMillis"])
	scalarMs := 0.0
	if engineMs >= 0 {
		scalarMs = max(0, engineMs-lockstepMs)
	} else {
		for name, v := range c {
			if strings.HasPrefix(name, "family.") && strings.HasSuffix(name, ".millis") {
				scalarMs += float64(v)
			}
		}
		engineMs = lockstepMs + scalarMs
	}
	l["scenario.engine.ms"] = engineMs
	l["scenario.engine.lockstep_ms"] = lockstepMs
	l["scenario.oracle.scalar_ms"] = scalarMs
	l["scenario.oracle.scalar_runs"] = float64(c["oracle.scalarRuns"])
	l["fsync.lane_rounds"] = float64(c["sim.lockstep.laneRounds"])
	l["fsync.ns_per_lane_round"] = ratio(lockstepMs*1e6, float64(c["sim.lockstep.laneRounds"]))
	l["fsync.rounds"] = float64(c["sim.rounds"])
	l["fsync.ns_per_round"] = ratio(scalarMs*1e6, float64(c["sim.rounds"]))
	fast, slow := float64(c["sim.wordFastLanes"]), float64(c["sim.wordFallbackLanes"])
	l["dyngraph.word_fast_share"] = ratio(fast, fast+slow)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runPaperSweep(ctx context.Context, it *iteration) error {
	cfg := harness.BatchConfig{
		Experiments: harness.All(),
		Seeds:       seedBlock(it.seed, it.sz.Seeds),
		Workers:     it.sz.Workers,
		Shard:       true,
	}
	var pm *harness.PoolMetrics
	if it.tr != nil {
		// Shard up front and wrap every experiment in a span; RunBatch
		// runs the identical job matrix, so the report bytes match.
		pm = harness.NewPoolMetrics(telemetry.NewRegistry(), "pool")
		cfg.Experiments = harness.Sharded(cfg.Experiments, false)
		cfg.Shard = false
		cfg.Metrics = pm
		slots := workerSlots(it.sz.Workers)
		for i := range cfg.Experiments {
			run, id := cfg.Experiments[i].Run, cfg.Experiments[i].ID
			cfg.Experiments[i].Run = func(c harness.Config) (harness.Result, error) {
				w := <-slots
				sp := it.tr.begin("harness.experiment", it.root, w, id)
				defer func() {
					it.tr.end(sp)
					slots <- w
				}()
				return run(c)
			}
		}
	}
	if !it.start() {
		return nil
	}
	jobs, err := harness.RunBatch(ctx, cfg)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		it.res.Ops++
		if !j.Passed() {
			it.res.Failed++
			it.problem("experiment %s seed %d does not reproduce the paper (err=%v)", j.ID, j.Seed, j.Err)
		}
	}
	if err := it.report("harness.report", func(w io.Writer) error { return harness.WriteBatchReport(w, jobs) }); err != nil {
		return err
	}
	// The sweep is the request: its user waits for the report.
	it.res.Latencies = append(it.res.Latencies, it.sinceSubmit())
	if it.tr == nil {
		return nil
	}

	spans := it.tr.snapshot()
	l := it.layers()
	groups := map[string]string{"E-T1": "harness.experiments.t1_ms", "E-F": "harness.experiments.figures_ms", "E-X": "harness.experiments.extensions_ms"}
	for _, name := range groups {
		l[name] = 0
	}
	for _, s := range spans {
		if s.Name != "harness.experiment" {
			continue
		}
		for prefix, name := range groups {
			if strings.HasPrefix(s.Attr, prefix) {
				l[name] += float64(s.dur()) / 1e6
			}
		}
	}
	n, busy, tail := poolStats(spans, "harness.experiment", it.sz.Workers)
	l["harness.experiments.jobs"] = float64(n)
	l["harness.pool.jobs"] = float64(n)
	l["harness.pool.busy_ratio"] = busy
	l["harness.pool.tail_idle_ms"] = tail
	l["harness.pool.permit_waits"] = float64(pm.PermitWaits.Value())
	return nil
}

// runSearch runs sz.Searches searches one after another, each with its own
// seed. How much a search costs depends on the families its bandit
// settles on, which differs from seed to seed by ±20%; several searches
// per iteration average that out.
func runSearch(ctx context.Context, it *iteration) error {
	var tel *scenario.Telemetry
	if it.tr != nil {
		tel = scenario.NewTelemetry()
	}
	var last time.Time
	gen := 0
	cfg := search.Config{
		Generations:    it.sz.Generations,
		GenerationSize: it.sz.GenerationSize,
		Workers:        it.sz.Workers,
		Telemetry:      tel,
		OnGeneration: func(p search.Progress) error {
			now := time.Now()
			it.res.Latencies = append(it.res.Latencies, float64(now.Sub(last).Nanoseconds())/1e6)
			last = now
			it.tr.end(gen)
			if p.Generation < p.Generations {
				gen = it.tr.begin("search.generation", it.root, -1, fmt.Sprint(p.Generation))
			}
			return nil
		},
	}
	if !it.start() {
		return nil
	}
	corpus := 0
	for _, seed := range seedBlock(it.seed, it.sz.Searches) {
		cfg.Seed = seed
		last = time.Now()
		gen = it.tr.begin("search.generation", it.root, -1, "0")
		res, err := search.Run(ctx, cfg)
		if err != nil {
			return err
		}
		it.res.Ops += res.Samples
		corpus += len(res.Corpus)
		checkFindings(it, res.Violations)
		if err := it.report("search.report", res.WriteJSON, res.WriteReport); err != nil {
			return err
		}
	}
	if it.tr == nil {
		return nil
	}

	l := it.layers()
	engineLayers(l, tel.Snapshot(), -1)
	genTotal := 0.0
	for _, ms := range it.res.Latencies {
		genTotal += ms
	}
	l["search.generation_ms.p50"] = median(it.res.Latencies)
	l["search.plan_ms"] = max(0, genTotal-l["scenario.engine.ms"])
	l["search.corpus_size"] = float64(corpus) / float64(it.sz.Searches)
	l["search.samples"] = float64(it.res.Ops)
	return nil
}

// checkFindings checks the violations a search reports. The search steers
// toward the oracle's finite-horizon bounds (revisit gap ≤ horizon/2 and
// the like), so on some seeds it crosses one: such a violation is the
// search's output, not a failed operation, and it is correct when the
// scalar oracle replays it, and its minimized reproducer, as violations
// too. An error verdict, or a violation that does not replay, fails.
func checkFindings(it *iteration, found []search.Violation) {
	for _, v := range found {
		if v.Err != "" {
			it.res.Failed++
			it.problem("search error verdict %s: %s", v.ID, v.Err)
			continue
		}
		if r := scenario.Run(v.Spec); r.OK || r.Err != "" || r.Violation != v.Violation {
			it.res.Failed++
			it.problem("search violation %s (%s) replays as ok=%t err=%q violation=%q", v.ID, v.Violation, r.OK, r.Err, r.Violation)
			continue
		}
		if v.Minimized != nil {
			if r := scenario.Run(*v.Minimized); r.OK || r.Err != "" {
				it.res.Failed++
				it.problem("search reproducer %s of %s replays as ok=%t err=%q", v.MinimizedID, v.ID, r.OK, r.Err)
			}
		}
	}
}
