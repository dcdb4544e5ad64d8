package scenario

import (
	"context"
	"fmt"
	"io"
	"iter"
	"runtime"

	"pef/internal/harness"
	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/telemetry"
)

// CampaignConfig parameterizes a generated-scenario sweep: the generator,
// its parameter-space bounds, how many scenarios each generator seed
// contributes, the worker pool they shard across, and optionally which
// contiguous shard of the canonical stream this process runs.
type CampaignConfig struct {
	// Registry resolves family/algorithm/property names; nil means the
	// process default.
	Registry *Registry
	// Generator names the sampler (see Generators); empty means "uniform".
	Generator string
	// Gen bounds the sampled parameter space.
	Gen GenConfig
	// Count is the number of scenarios generated per seed; values < 1
	// mean 1.
	Count int
	// Seeds lists the generator seeds; empty means {1}.
	Seeds []uint64
	// Workers bounds the worker pool; values < 1 mean GOMAXPROCS.
	Workers int
	// ShardIndex and ShardCount select one contiguous block of the
	// canonical stream for multi-process campaigns: shard i of c runs
	// scenarios [i·total/c, (i+1)·total/c). ShardCount 0 (or 1 with
	// index 0) means the whole stream. Per-shard aggregates written as
	// checkpoints merge back into the single-process report via
	// MergeCheckpoints.
	ShardIndex, ShardCount int
	// Resume, when non-nil, continues a checkpointed campaign: the
	// generator, bounds, count, seeds and shard region are adopted from
	// the checkpoint (conflicting non-zero overrides are rejected), the
	// checkpointed prefix of the region is skipped, and reports fold the
	// checkpoint's aggregate back in — byte-identical to the
	// uninterrupted run.
	Resume *Checkpoint
	// OnVerdict, when non-nil, streams executed verdicts in canonical
	// order (seeds in the order given, stream index inside each seed),
	// independent of the worker count. On cancellation only the executed
	// prefix is streamed; consume Campaign.Verdicts for everything.
	OnVerdict func(Verdict)
	// Telemetry, when non-nil, instruments the whole campaign stack: the
	// worker pool, the oracle, the lockstep router and the simulators.
	// Purely observational — verdict streams and every report stay
	// byte-identical with or without it.
	Telemetry *Telemetry
	// Cache, when non-nil, intercepts execution per spec: looked-up
	// verdicts replace engine runs, freshly computed clean verdicts are
	// offered to Store. Streams and reports stay byte-identical with any
	// correct cache attached, because per-spec verdicts are already
	// invariant under engine blocking (lane or scalar route, any block)
	// and a cache only substitutes a spec's own stored verdict.
	Cache VerdictCache
	// Trace, when non-nil, receives structured campaign lifecycle events
	// (campaign-start, block-retired) as JSONL. Events are emitted from
	// the single-threaded emission path with monotonic sequence numbers
	// and no wall clocks, so a trace file is byte-identical for any
	// worker count.
	Trace *telemetry.Tracer
}

// VerdictCache is the campaign-side face of a verdict store (pef serve's
// content-addressed cache implements it). Lookup returns the verdict of
// a previously executed identical spec; Store offers a freshly computed
// one. Both are called concurrently from pool workers and must be safe
// for concurrent use. Implementations must return verdicts exactly as
// stored — the campaign trusts them byte for byte. Verdicts carrying an
// execution error (Err != "", which includes cancellations) are never
// offered to Store.
type VerdictCache interface {
	Lookup(s Spec) (Verdict, bool)
	Store(s Spec, v Verdict)
}

// registry resolves the effective registry of the config.
func (cfg CampaignConfig) registry() *Registry {
	if cfg.Registry != nil {
		return cfg.Registry
	}
	return DefaultRegistry()
}

// resolved fills the config defaults, validates the shard selection, and
// adopts a Resume checkpoint's campaign identity, rejecting conflicting
// explicit overrides.
func (cfg CampaignConfig) resolved() (CampaignConfig, error) {
	if cfg.ShardCount < 0 || cfg.ShardIndex < 0 {
		return cfg, fmt.Errorf("scenario: negative shard selection %d/%d", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount > 0 && cfg.ShardIndex >= cfg.ShardCount {
		return cfg, fmt.Errorf("scenario: shard index %d outside shard count %d", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount == 0 && cfg.ShardIndex > 0 {
		return cfg, fmt.Errorf("scenario: shard index %d without a shard count", cfg.ShardIndex)
	}
	if r := cfg.Resume; r != nil {
		if err := r.validate(); err != nil {
			return cfg, err
		}
		if cfg.ShardCount > 0 {
			return cfg, fmt.Errorf("scenario: resume adopts the checkpoint's shard region; drop the explicit shard selection")
		}
		if cfg.Generator != "" && cfg.Generator != r.Generator {
			return cfg, fmt.Errorf("scenario: resume generator %q conflicts with checkpoint %q", cfg.Generator, r.Generator)
		}
		if cfg.Count > 0 && cfg.Count != r.Count {
			return cfg, fmt.Errorf("scenario: resume count %d conflicts with checkpoint %d", cfg.Count, r.Count)
		}
		if len(cfg.Seeds) > 0 && !equalSeeds(cfg.Seeds, r.Seeds) {
			return cfg, fmt.Errorf("scenario: resume seeds %v conflict with checkpoint %v", cfg.Seeds, r.Seeds)
		}
		if cfg.Gen != (GenConfig{}) && cfg.Gen.withDefaults() != r.Gen {
			return cfg, fmt.Errorf("scenario: resume generator bounds %+v conflict with checkpoint %+v", cfg.Gen.withDefaults(), r.Gen)
		}
		cfg.Generator = r.Generator
		cfg.Count = r.Count
		cfg.Seeds = append([]uint64(nil), r.Seeds...)
		cfg.Gen = r.Gen
	}
	if cfg.Generator == "" {
		cfg.Generator = "uniform"
	}
	if cfg.Count < 1 {
		cfg.Count = 1
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{1}
	}
	if total := cfg.Count * len(cfg.Seeds); cfg.ShardCount > total {
		// An empty shard would checkpoint a [0, 0) block, which is
		// indistinguishable from a pre-shard whole-campaign checkpoint.
		return cfg, fmt.Errorf("scenario: %d shards for %d scenarios (every shard must be non-empty)", cfg.ShardCount, total)
	}
	return cfg, nil
}

// region returns the [start, end) block of the canonical stream this
// resolved config is responsible for, and the position to resume from
// inside it (== start for fresh runs).
func (cfg CampaignConfig) region() (start, from, end int) {
	total := cfg.Count * len(cfg.Seeds)
	if r := cfg.Resume; r != nil {
		return r.Start, r.Start + r.Done, r.effEnd(total)
	}
	if cfg.ShardCount > 1 {
		start = cfg.ShardIndex * total / cfg.ShardCount
		end = (cfg.ShardIndex + 1) * total / cfg.ShardCount
		return start, start, end
	}
	return 0, 0, total
}

func equalSeeds(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// specStream draws the campaign's canonical scenario sequence lazily:
// seeds in order, Count samples per seed, each seed's stream identical to
// Generate(generator, cfg, seed, count). Campaigns therefore never
// materialize the full spec slice — the pool feeds one window at a time.
type specStream struct {
	reg    *Registry
	gen    Generator
	cfg    GenConfig
	seeds  []uint64
	count  int
	seed   int // index into seeds of the current source
	inSeed int // samples already drawn from the current source
	src    *prng.Source
}

func newSpecStream(reg *Registry, gen Generator, cfg GenConfig, seeds []uint64, count int) *specStream {
	return &specStream{reg: reg, gen: gen, cfg: cfg, seeds: seeds, count: count}
}

// next returns the following spec of the canonical sequence. Calling it
// more than len(seeds)*count times is a bug in the caller.
func (st *specStream) next() Spec {
	for st.src == nil || st.inSeed == st.count {
		if st.src != nil {
			st.seed++
		}
		if st.seed >= len(st.seeds) {
			panic("scenario: spec stream exhausted")
		}
		st.src = prng.NewSource(st.seeds[st.seed])
		st.inSeed = 0
	}
	st.inSeed++
	return st.gen.Sample(st.reg, st.cfg, st.src)
}

// poolWorkers resolves a worker count the way the harness pool does:
// values < 1 mean GOMAXPROCS.
func poolWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// StreamCampaign generates Count scenarios per seed and shards them
// across the harness worker pool, yielding one (verdict, error) pair per
// scenario in canonical order — byte-identical for any worker count. It
// is the bounded-memory core of the campaign subsystem: specs are fed
// lazily from the seeded samplers, at most O(workers) verdicts are ever
// buffered for reordering, and nothing is retained after a yield, so a
// million-scenario sweep holds whatever state the consumer keeps (an
// Aggregate, typically) and no more.
//
// Error semantics: a configuration failure (unknown generator, invalid
// bounds, checkpoint conflict) yields exactly one (zero Verdict, err)
// pair and stops. After a context cancellation, scenarios that never ran
// are still yielded — in order, with their identity-filled error verdict
// and err set to ctx.Err() — so consumers always see exactly one pair per
// scenario of the selected region otherwise. Scenario-level failures are
// not stream errors: they arrive as OK=false or Err-carrying verdicts
// with a nil stream error, exactly like RunCampaign records them.
//
// When cfg.Resume is set the checkpointed prefix is skipped: the stream
// yields only the remaining scenarios; fold them into the checkpoint's
// Aggregate (see NewAggregate) to reproduce the full-campaign reports.
// When a shard is selected, only that contiguous block streams.
func StreamCampaign(ctx context.Context, cfg CampaignConfig) iter.Seq2[Verdict, error] {
	return func(yield func(Verdict, error) bool) {
		rcfg, err := cfg.resolved()
		if err != nil {
			yield(Verdict{}, err)
			return
		}
		reg := rcfg.registry()
		gen, err := NewGenerator(rcfg.Generator)
		if err != nil {
			yield(Verdict{}, err)
			return
		}
		gcfg := rcfg.Gen.withDefaults()
		if err := gcfg.validate(reg); err != nil {
			yield(Verdict{}, err)
			return
		}
		_, from, end := rcfg.region()
		stream := newSpecStream(reg, gen, gcfg, rcfg.Seeds, rcfg.Count)
		for i := 0; i < from; i++ {
			stream.next() // replay the sampler past the skipped prefix
		}
		// Every field is resolution-level (no worker count, no clock), so
		// the trace prefix is identical for any pool configuration.
		rcfg.Trace.Emit("campaign-start", map[string]any{
			"generator": rcfg.Generator,
			"count":     rcfg.Count,
			"seeds":     len(rcfg.Seeds),
			"from":      from,
			"end":       end,
		})

		streamBlocks(ctx, rcfg, reg, stream.next, end-from, false, yield)
	}
}

// StreamSpecs runs an explicit spec list through the campaign engine —
// the same worker pool, lane blocking, cache and trace path as
// StreamCampaign, minus the seeded sampler — yielding one (verdict,
// error) pair per spec in input order, byte-identical for any worker
// count. It is the steering hook of the coverage-guided
// searcher: generated-then-mutated spec blocks run here without round-
// tripping through a Generator. The sampler-stream fields of cfg
// (Generator, Gen, Count, Seeds, the shard selection and Resume) are
// ignored; error semantics otherwise match StreamCampaign.
func StreamSpecs(ctx context.Context, cfg CampaignConfig, specs []Spec) iter.Seq2[Verdict, error] {
	return func(yield func(Verdict, error) bool) {
		cfg.Generator, cfg.Gen = "", GenConfig{}
		cfg.Count, cfg.Seeds = 0, nil
		cfg.ShardIndex, cfg.ShardCount = 0, 0
		cfg.Resume = nil
		rcfg, err := cfg.resolved()
		if err != nil {
			yield(Verdict{}, err)
			return
		}
		if len(specs) == 0 {
			return
		}
		pos := 0
		next := func() Spec {
			s := specs[pos]
			pos++
			return s
		}
		streamBlocks(ctx, rcfg, rcfg.registry(), next, len(specs), true, yield)
	}
}

// blockSpecs is the number of consecutive specs in one pool job, the
// block RunBlock packs lane groups from. It is wide enough that shapes
// recur tens of times per block, which is what amortizes the engine's
// per-round circuit: 64-spec blocks of a diverse sampler average one to
// two lanes per shape and gain nothing.
const blockSpecs = 1024

// streamBlocks shards the next-supplied spec sequence across the worker
// pool in blocks of blockSpecs and yields verdicts in canonical (input)
// order — the shared engine core behind StreamCampaign's lazy sampler
// streams and StreamSpecs' explicit lists.
//
// When spread is set, workers the pool cannot occupy (fewer jobs than
// workers, as in a search generation that fits one lane block) go to
// RunBlock's fan-out instead: each block runs its units on
// max(1, workers/jobs) goroutines. Campaigns pass spread=false and keep
// one goroutine per block: a served campaign shares the cores with the
// server's /run traffic, and fanning it out slows that traffic down.
func streamBlocks(ctx context.Context, rcfg CampaignConfig, reg *Registry, next func() Spec, total int, spread bool, yield func(Verdict, error) bool) {
	// Jobs are blocks of consecutive specs of the canonical stream: the
	// block is the unit the lane engine packs lanes from, and flattening
	// block verdicts in job order reproduces the canonical per-spec
	// stream exactly.
	jobs := (total + blockSpecs - 1) / blockSpecs
	blockLen := func(i int) int {
		if i == jobs-1 {
			return total - i*blockSpecs
		}
		return blockSpecs
	}
	workers := poolWorkers(rcfg.Workers)
	fan := 1
	if spread {
		fan = max(1, workers/jobs)
	}
	// The pool keeps at most window jobs in flight, so the spec ring
	// needs no more slots than that — nor more than there are jobs, nor
	// more capacity per slot than the whole stream.
	window := 8 * workers
	ring := make([][]Spec, min(window, jobs))
	for i := range ring {
		ring[i] = make([]Spec, 0, min(blockSpecs, total))
	}
	slot := func(i int) int { return i % len(ring) }
	for item := range harness.StreamPool(ctx, harness.PoolConfig[[]Verdict]{
		Total:   jobs,
		Workers: rcfg.Workers,
		Window:  window,
		Metrics: rcfg.Telemetry.poolMetrics(),
		// Feed materializes job i's spec block into its ring slot right
		// before it runs; the pool guarantees Feed(i) happens-before
		// Run(i) and that the slot is not reused until job i was yielded.
		Feed: func(i int) {
			block := ring[slot(i)][:0]
			for j := 0; j < blockLen(i); j++ {
				block = append(block, next())
			}
			ring[slot(i)] = block
		},
		Run: func(i int) []Verdict {
			block := ring[slot(i)]
			opts := RunOptions{Registry: reg, Telemetry: rcfg.Telemetry, fan: fan}
			if rcfg.Cache == nil {
				return RunBlock(ctx, block, opts)
			}
			// Cached path: serve hits from the store and run only the
			// miss subset as its own block. Safe for byte-identity:
			// per-spec verdicts are invariant under blocking, so the
			// miss sub-block computes exactly the bytes the full block
			// would have.
			vs := make([]Verdict, len(block))
			var misses []Spec
			var missAt []int
			for j, s := range block {
				if v, ok := rcfg.Cache.Lookup(s); ok {
					vs[j] = v
					continue
				}
				misses = append(misses, s)
				missAt = append(missAt, j)
			}
			if len(misses) > 0 {
				for j, v := range RunBlock(ctx, misses, opts) {
					if v.Err == "" {
						rcfg.Cache.Store(misses[j], v)
					}
					vs[missAt[j]] = v
				}
			}
			return vs
		},
	}) {
		vs := item.R
		if item.Err != nil {
			// A claimed job always runs, so this block was never fed, and
			// cancelled jobs are yielded only after every worker has
			// exited: continuing the sampler here is race-free.
			msg := fmt.Sprintf("scenario cancelled before running: %v", item.Err)
			vs = make([]Verdict, blockLen(item.I))
			for j := range vs {
				s := next()
				vs[j] = Verdict{ID: s.ID(), Spec: s, Expect: s.Expect, Outcome: "error", CoverTime: -1, Err: msg}
			}
		}
		for _, v := range vs {
			if !yield(v, item.Err) {
				return
			}
		}
		// Blocks retire in index order on this single-threaded path, so
		// the event sequence is deterministic for any worker count.
		rcfg.Trace.Emit("block-retired", map[string]any{
			"block": item.I,
			"specs": len(vs),
		})
	}
}

// Campaign is a completed sweep: the verdicts this process executed in
// canonical order, plus the resolved configuration that produced them.
// Every report derives from the aggregate fold alone, so campaign output
// is byte-identical for any worker count — and, for resumed campaigns,
// identical to the uninterrupted run's.
type Campaign struct {
	// Generator, Gen, Count and Seeds echo the resolved configuration.
	Generator string
	Gen       GenConfig
	Count     int
	Seeds     []uint64
	// ShardIndex and ShardCount echo the shard selection (0/0 for whole
	// campaigns).
	ShardIndex, ShardCount int
	// Verdicts holds one verdict per scenario this process ran, in
	// canonical order. For resumed campaigns it covers only the portion
	// after the checkpoint; reports and counters below always include
	// the checkpointed prefix.
	Verdicts []Verdict

	// registry is the resolver the campaign ran under.
	registry *Registry
	// resumed is the checkpoint the campaign continued from, nil for
	// fresh runs.
	resumed *Checkpoint
	// agg caches the verdict fold behind every accessor below; it is
	// built lazily on first use. Mutating Verdicts after that first use
	// is unsupported (reports would keep serving the cached fold).
	agg *Aggregate
}

// RunCampaign generates Count scenarios per seed and shards them across
// the harness worker pool, checking every one against the property
// oracle. It is StreamCampaign collected into a Campaign; use the stream
// (plus NewAggregate) directly when the verdict slice of a huge sweep
// should not be held in memory.
//
// Scenario-level failures (panics, invalid samples) become error
// verdicts; RunCampaign itself fails only on an unknown generator, an
// inconsistent Resume checkpoint, or a cancelled context.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*Campaign, error) {
	rcfg, err := cfg.resolved()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		Generator:  rcfg.Generator,
		Gen:        rcfg.Gen.withDefaults(),
		Count:      rcfg.Count,
		Seeds:      rcfg.Seeds,
		ShardIndex: rcfg.ShardIndex,
		ShardCount: rcfg.ShardCount,
		registry:   rcfg.Registry,
		resumed:    rcfg.Resume,
	}
	var ctxErr error
	for v, err := range StreamCampaign(ctx, rcfg) {
		if err != nil {
			if v.ID == "" {
				return nil, err // configuration failure: no stream ran
			}
			ctxErr = err // cancellation: identity-filled verdict, keep collecting
		}
		c.Verdicts = append(c.Verdicts, v)
		if err == nil && rcfg.OnVerdict != nil {
			rcfg.OnVerdict(v)
		}
	}
	return c, ctxErr
}

// aggregate folds the campaign (resumed prefix plus collected verdicts)
// into an Aggregate, computed once and cached: every accessor below is a
// cheap read after the first.
func (c *Campaign) aggregate() *Aggregate {
	if c.agg != nil {
		return c.agg
	}
	a, err := NewAggregate(CampaignConfig{
		Registry:   c.registry,
		Generator:  c.Generator,
		Gen:        c.Gen,
		Count:      c.Count,
		Seeds:      c.Seeds,
		ShardIndex: c.ShardIndex,
		ShardCount: c.ShardCount,
		Resume:     c.resumed,
	})
	if err != nil {
		// The campaign was built from a validated configuration; a fold
		// failure is a programming error, not a user input.
		panic(fmt.Sprintf("scenario: campaign aggregate: %v", err))
	}
	for _, v := range c.Verdicts {
		a.Add(v)
	}
	c.agg = a
	return a
}

// Checkpoint snapshots the campaign — including any resumed prefix — as a
// resumable checkpoint.
func (c *Campaign) Checkpoint() *Checkpoint { return c.aggregate().Checkpoint() }

// OKCount returns the number of verdicts whose expectation holds,
// including a resumed checkpoint's prefix.
func (c *Campaign) OKCount() int { return c.aggregate().OKCount() }

// Total returns the number of scenarios the campaign accounts for,
// including a resumed checkpoint's prefix.
func (c *Campaign) Total() int { return c.aggregate().Done() }

// Violations returns the verdicts that failed their predicate or errored,
// in canonical order, including a resumed checkpoint's prefix.
func (c *Campaign) Violations() []Verdict { return c.aggregate().Violations() }

// FamilyStats aggregates a campaign per dynamics family.
type FamilyStats struct {
	Family string `json:"family"`
	// Runs and OK count the family's scenarios and how many satisfied
	// their expectation.
	Runs int `json:"runs"`
	OK   int `json:"ok"`
	// ByExpect counts runs per enforced expectation, in canonical order
	// (explore, confine, none). Custom properties count under None.
	Explore int `json:"explore,omitempty"`
	Confine int `json:"confine,omitempty"`
	None    int `json:"none,omitempty"`
	// Errors counts runs that died before producing metrics (panics,
	// invalid samples, cancellations) — previously invisible: they only
	// surfaced inside the violation list.
	Errors int `json:"errors,omitempty"`
}

// FamilyTable returns per-family aggregates in first-seen (canonical)
// order.
func (c *Campaign) FamilyTable() []FamilyStats { return c.aggregate().FamilyTable() }

// Sweep folds the campaign into the shared metrics aggregate: per-family
// verdict counts via scalars plus cover-time and revisit-gap series for
// the explored scenarios.
func (c *Campaign) Sweep() *metrics.Sweep { return c.aggregate().Sweep() }

// WriteReport renders the campaign as a human-readable report: the family
// aggregate, the scalar spread, and one section per violation.
func (c *Campaign) WriteReport(w io.Writer) error { return c.aggregate().WriteReport(w) }

// WriteJSON renders the versioned campaign document.
func (c *Campaign) WriteJSON(w io.Writer) error { return c.aggregate().WriteJSON(w) }
