// Package search implements coverage-guided scenario search: generational
// campaigns that spend their budget where the paper's predicate bounds
// are tightest instead of sampling the parameter space blindly.
//
// Each generation runs one block of specs through the campaign engine
// (scenario.StreamSpecs — the same worker pool, lockstep lane packing and
// cache path campaigns use) and reads back the per-verdict predicate
// margins (scenario.Margins). A generation usually fits one lane block,
// so the pool has one job; StreamSpecs then spreads that block's lane
// groups and scalar specs over the otherwise idle workers (campaigns do
// not). Two steering mechanisms spend the next generation's budget:
//
//   - a seeded UCB bandit over the registered explorable-family pool,
//     rewarded by margin tightness, chooses which families to sample;
//   - parameter-space mutation of a near-violation corpus — the
//     lowest-margin surviving specs seen so far — walks specs toward the
//     theorem boundary (ring/team nudges, parameter jiggles, reseeds).
//
// Violations are auto-shrunk through the scenario minimizer and reported
// as minimal reproducers; the run ends with a boundary report (tightest
// observed margin per family × metric) that pefbenchdiff diffs across
// runs. Every random draw comes from prng.Hash3 keyed by (seed,
// generation, slot) — no wall clocks, no global state — and planning,
// folding and reporting are single-threaded, so a fixed-seed search is
// byte-identical for any worker count and lane width.
package search

import (
	"context"
	"errors"
	"fmt"

	"pef/internal/metrics"
	"pef/internal/prng"
	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// Hash3 stream tags: every deterministic draw of the search loop lives on
// its own stream so adding a draw never shifts another's sequence.
const (
	streamWarm    uint64 = 0x5EA4C401 // warmup family pick
	streamBandit  uint64 = 0x5EA4C402 // post-warmup arm pick
	streamSample  uint64 = 0x5EA4C403 // per-slot spec sampling source
	streamMutPick uint64 = 0x5EA4C404 // mutation parent/operator pick
	streamMutDraw uint64 = 0x5EA4C405 // per-slot mutation source
)

// slotKey packs a (generation, slot) pair into one Hash3 position.
func slotKey(g, i int) uint64 { return uint64(g)<<32 | uint64(uint32(i)) }

// ErrHalted is the sentinel an OnGeneration hook returns to stop the
// search cleanly after the current generation: Run returns the state so
// far with Result.Halted set, ready to be checkpointed and resumed.
var ErrHalted = errors.New("search: halted")

// Config parameterizes a search run. The zero value searches the default
// registry's explorable pool with the default budget.
type Config struct {
	// Registry resolves families and runs specs; nil means the process
	// default.
	Registry *scenario.Registry
	// Seed keys every deterministic draw of the run. Equal (registry,
	// config) runs are byte-identical, for any worker count.
	Seed uint64
	// Generations is the number of generations to run; values < 1 mean 8.
	Generations int
	// GenerationSize is the number of specs per generation; values < 1
	// mean 256.
	GenerationSize int
	// Warmup is the number of leading generations sampled uniformly over
	// the pool (no steering): they initialize the bandit arms and fix the
	// bottom-quartile margin threshold the concentration gate measures
	// against. Values < 1 mean min(2, Generations).
	Warmup int
	// MutationShare is the percentage of each post-warmup generation
	// spent mutating the near-violation corpus (the rest goes to the
	// bandit). 0 means 50; negative means no mutations.
	MutationShare int
	// CorpusSize bounds the near-violation corpus: the CorpusSize
	// lowest-margin surviving specs seen so far. Values < 1 mean 64.
	CorpusSize int
	// MaxMinimize bounds how many violations the run shrinks through the
	// scenario minimizer (each shrink replays the spec many times). 0
	// means 4; negative means none.
	MaxMinimize int
	// Gen bounds the sampled parameter space and selects the family pool
	// (Families filter or FamilyWeights), exactly like the "registered"
	// generator.
	Gen scenario.GenConfig
	// Workers, LaneWidth and DisableLockstep configure the engine like
	// CampaignConfig; none of them affects output bytes.
	Workers         int
	LaneWidth       int
	DisableLockstep bool
	// Telemetry, when non-nil, instruments the run: the engine stack as
	// usual plus the search.* instruments (generations, samples,
	// mutations, corpus size, margin distribution, concentration
	// counters). Purely observational.
	Telemetry *scenario.Telemetry
	// Trace, when non-nil, receives search lifecycle events
	// (search-start, generation, violation-found, search-end) —
	// deterministic fields only, byte-identical for any worker count and
	// lane width. The engine's own block events are deliberately not
	// forwarded: block boundaries depend on the lane width, and the
	// search trace must not.
	Trace *telemetry.Tracer
	// Resume, when non-nil, continues a checkpointed search: the config
	// identity is adopted from the checkpoint (conflicting non-zero
	// overrides are rejected; Generations may be raised to extend the
	// run) and the completed generations are skipped. A halted-and-
	// resumed run's boundary report is byte-identical to the
	// uninterrupted run's.
	Resume *Checkpoint
	// OnGeneration, when non-nil, runs after every completed generation
	// (checkpoint writing, progress display). Returning ErrHalted stops
	// the search cleanly; any other error aborts it.
	OnGeneration func(Progress) error
}

// resolved fills defaults and adopts a Resume checkpoint's identity,
// rejecting conflicting explicit overrides.
func (cfg Config) resolved() (Config, error) {
	if ck := cfg.Resume; ck != nil {
		if err := ck.validate(); err != nil {
			return cfg, err
		}
		if cfg.Seed != 0 && cfg.Seed != ck.Seed {
			return cfg, fmt.Errorf("search: resume seed %d conflicts with checkpoint %d", cfg.Seed, ck.Seed)
		}
		if cfg.Generations > 0 && cfg.Generations < ck.Done {
			return cfg, fmt.Errorf("search: resume generations %d below the checkpoint's %d completed", cfg.Generations, ck.Done)
		}
		if cfg.GenerationSize > 0 && cfg.GenerationSize != ck.GenerationSize {
			return cfg, fmt.Errorf("search: resume generation size %d conflicts with checkpoint %d", cfg.GenerationSize, ck.GenerationSize)
		}
		if cfg.Warmup > 0 && cfg.Warmup != ck.Warmup {
			return cfg, fmt.Errorf("search: resume warmup %d conflicts with checkpoint %d", cfg.Warmup, ck.Warmup)
		}
		if cfg.MutationShare != 0 && cfg.MutationShare != ck.MutationShare {
			return cfg, fmt.Errorf("search: resume mutation share %d conflicts with checkpoint %d", cfg.MutationShare, ck.MutationShare)
		}
		if cfg.CorpusSize > 0 && cfg.CorpusSize != ck.CorpusSize {
			return cfg, fmt.Errorf("search: resume corpus size %d conflicts with checkpoint %d", cfg.CorpusSize, ck.CorpusSize)
		}
		if cfg.MaxMinimize != 0 && cfg.MaxMinimize != ck.MaxMinimize {
			return cfg, fmt.Errorf("search: resume minimize budget %d conflicts with checkpoint %d", cfg.MaxMinimize, ck.MaxMinimize)
		}
		if cfg.Gen != (scenario.GenConfig{}) && cfg.Gen != ck.Gen {
			return cfg, fmt.Errorf("search: resume generator bounds %+v conflict with checkpoint %+v", cfg.Gen, ck.Gen)
		}
		cfg.Seed = ck.Seed
		if cfg.Generations == 0 {
			cfg.Generations = ck.Generations
		}
		cfg.GenerationSize = ck.GenerationSize
		cfg.Warmup = ck.Warmup
		cfg.MutationShare = ck.MutationShare
		cfg.CorpusSize = ck.CorpusSize
		cfg.MaxMinimize = ck.MaxMinimize
		cfg.Gen = ck.Gen
	}
	if cfg.Generations < 1 {
		cfg.Generations = 8
	}
	if cfg.GenerationSize < 1 {
		cfg.GenerationSize = 256
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 2
		if cfg.Generations < 2 {
			cfg.Warmup = cfg.Generations
		}
	}
	if cfg.Warmup > cfg.Generations {
		return cfg, fmt.Errorf("search: warmup %d exceeds generations %d", cfg.Warmup, cfg.Generations)
	}
	switch {
	case cfg.MutationShare == 0:
		cfg.MutationShare = 50
	case cfg.MutationShare < 0:
		cfg.MutationShare = 0
	}
	if cfg.MutationShare > 100 {
		return cfg, fmt.Errorf("search: mutation share %d%% above 100", cfg.MutationShare)
	}
	if cfg.CorpusSize < 1 {
		cfg.CorpusSize = 64
	}
	switch {
	case cfg.MaxMinimize == 0:
		cfg.MaxMinimize = 4
	case cfg.MaxMinimize < 0:
		cfg.MaxMinimize = 0
	}
	return cfg, nil
}

// registry resolves the effective registry.
func (cfg Config) registry() *scenario.Registry {
	if cfg.Registry != nil {
		return cfg.Registry
	}
	return scenario.DefaultRegistry()
}

// Progress is the per-generation callback payload.
type Progress struct {
	// Generation counts completed generations; Generations is the target.
	Generation, Generations int
	// Samples, CorpusSize and Violations summarize the state so far.
	Samples, CorpusSize, Violations int

	checkpoint func() *Checkpoint
}

// Checkpoint snapshots the search state after this generation; the
// snapshot resumes into a run byte-identical to the uninterrupted one.
func (p Progress) Checkpoint() *Checkpoint { return p.checkpoint() }

// ArmState is one bandit arm's accumulated statistics.
type ArmState struct {
	// Family is the explorable family the arm samples.
	Family string `json:"family"`
	// Pulls counts specs attributed to the arm (warmup and steered).
	Pulls int `json:"pulls"`
	// RewardMilli is the per-mille reward sum: 1000−rel for surviving
	// margins (tight margins reward high), 1000 for predicate violations,
	// 0 for errored runs.
	RewardMilli int64 `json:"rewardMilli"`
}

// CorpusEntry is one near-violation corpus member: a surviving spec with
// the margins that earned it a slot.
type CorpusEntry struct {
	// Spec is the surviving scenario, canonical JSON in checkpoints.
	Spec scenario.Spec `json:"spec"`
	// Margin and Metric identify the tightest margin the run had (raw
	// value in the metric's unit).
	Margin int    `json:"margin"`
	Metric string `json:"metric"`
	// Rel is the tightest margin normalized to per-mille — the corpus
	// ranking key.
	Rel int `json:"rel"`
}

// BoundaryRow is one cell of the boundary report: the tightest margin
// ever observed for a (family, metric) pair.
type BoundaryRow struct {
	Family string `json:"family"`
	Metric string `json:"metric"`
	// Min is the smallest raw margin observed; RelMin the smallest
	// per-mille one (they may come from different specs).
	Min    int `json:"min"`
	RelMin int `json:"relMin"`
	// Count is how many margins were folded into the cell.
	Count int `json:"count"`
	// SpecID identifies the first spec that achieved Min.
	SpecID string `json:"specId"`
}

// Violation is one predicate violation the search found, with its
// minimized reproducer when the shrink budget allowed one.
type Violation struct {
	ID        string        `json:"id"`
	Spec      scenario.Spec `json:"spec"`
	Outcome   string        `json:"outcome,omitempty"`
	Violation string        `json:"violation,omitempty"`
	Err       string        `json:"error,omitempty"`
	// Minimized is the scenario.Minimize-shrunk reproducer (nil when the
	// violation was an execution error or the shrink budget was spent).
	Minimized   *scenario.Spec `json:"minimized,omitempty"`
	MinimizedID string         `json:"minimizedId,omitempty"`
}

// searcher is the full mutable search state; everything in it is
// integer-valued and single-threaded, which is what makes checkpoints
// exact and runs byte-identical across engine configurations.
type searcher struct {
	cfg     Config // resolved
	reg     *scenario.Registry
	pool    []string
	weights []int
	arms    []ArmState

	gen         int // completed generations
	samples     int
	mutations   int
	banditPicks int

	corpus    []CorpusEntry
	corpusIdx map[string]bool

	warm       *metrics.Dist // warmup rel-margin distribution
	threshold  int           // bottom-quartile rel margin, valid once gen >= Warmup
	postWarmup int           // post-warmup samples carrying margins
	bottom     int           // ... of those at or below threshold

	rows   []BoundaryRow
	rowIdx map[string]int

	viols     []Violation
	minimized int

	halted bool
	ins    instruments
}

// planned pairs a generation slot's spec with its attribution: the bandit
// arm that chose the family, or -1 for corpus mutations.
type planned struct {
	spec scenario.Spec
	arm  int
}

// newSearcher resolves the config, derives the family pool and restores
// checkpoint state.
func newSearcher(cfg Config) (*searcher, error) {
	rcfg, err := cfg.resolved()
	if err != nil {
		return nil, err
	}
	reg := rcfg.registry()
	pool, weights, err := reg.ExplorableFamilies(rcfg.Gen)
	if err != nil {
		return nil, err
	}
	sr := &searcher{
		cfg:       rcfg,
		reg:       reg,
		pool:      pool,
		weights:   weights,
		arms:      make([]ArmState, len(pool)),
		corpusIdx: map[string]bool{},
		warm:      metrics.NewDist(),
		rowIdx:    map[string]int{},
		ins:       newInstruments(rcfg.Telemetry),
	}
	for i, f := range pool {
		sr.arms[i].Family = f
	}
	if ck := rcfg.Resume; ck != nil {
		if err := sr.restore(ck); err != nil {
			return nil, err
		}
	}
	if sr.gen >= sr.cfg.Warmup {
		sr.threshold = quantile25(sr.warm)
	}
	return sr, nil
}

// quantile25 returns the 25th-percentile value of the distribution (floor
// index over the sorted multiset), 0 when empty.
func quantile25(d *metrics.Dist) int {
	vs := d.Values()
	if len(vs) == 0 {
		return 0
	}
	return vs[(len(vs)-1)/4]
}

// Run executes the search to completion (or a clean halt) and returns
// the final state. See the package comment for the loop structure.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	sr, err := newSearcher(cfg)
	if err != nil {
		return nil, err
	}
	sr.cfg.Trace.Emit("search-start", map[string]any{
		"seed":           sr.cfg.Seed,
		"generations":    sr.cfg.Generations,
		"generationSize": sr.cfg.GenerationSize,
		"warmup":         sr.cfg.Warmup,
		"mutationShare":  sr.cfg.MutationShare,
		"pool":           len(sr.pool),
		"resumedFrom":    sr.gen,
	})
	for g := sr.gen; g < sr.cfg.Generations; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sr.runGeneration(ctx, g); err != nil {
			return nil, err
		}
		if sr.gen == sr.cfg.Warmup {
			// Warmup complete: freeze the bottom-quartile threshold the
			// concentration accounting measures steering against.
			sr.threshold = quantile25(sr.warm)
		}
		sr.emitGeneration(g)
		if sr.cfg.OnGeneration != nil {
			err := sr.cfg.OnGeneration(Progress{
				Generation:  sr.gen,
				Generations: sr.cfg.Generations,
				Samples:     sr.samples,
				CorpusSize:  len(sr.corpus),
				Violations:  len(sr.viols),
				checkpoint:  sr.checkpoint,
			})
			if errors.Is(err, ErrHalted) {
				sr.halted = true
				break
			}
			if err != nil {
				return nil, err
			}
		}
	}
	sr.cfg.Trace.Emit("search-end", map[string]any{
		"generations": sr.gen,
		"samples":     sr.samples,
		"violations":  len(sr.viols),
		"halted":      sr.halted,
	})
	return sr.result(), nil
}

// runGeneration plans, executes and folds one generation.
func (sr *searcher) runGeneration(ctx context.Context, g int) error {
	plans, err := sr.plan(g)
	if err != nil {
		return err
	}
	specs := make([]scenario.Spec, len(plans))
	for i := range plans {
		specs[i] = plans[i].spec
	}
	var cands []CorpusEntry
	i := 0
	for v, err := range scenario.StreamSpecs(ctx, scenario.CampaignConfig{
		Registry:        sr.reg,
		Workers:         sr.cfg.Workers,
		LaneWidth:       sr.cfg.LaneWidth,
		DisableLockstep: sr.cfg.DisableLockstep,
		Telemetry:       sr.cfg.Telemetry,
	}, specs) {
		if err != nil {
			// Cancellation mid-generation: the partial fold is discarded
			// (generations are the checkpoint grain), the caller resumes
			// from the last completed one.
			return err
		}
		sr.fold(g, plans[i], v, &cands)
		i++
	}
	sr.mergeCorpus(cands)
	sr.gen = g + 1
	sr.ins.generations.Inc()
	sr.ins.corpusSize.Set(int64(len(sr.corpus)))
	return nil
}

// plan lays out one generation: uniform pool draws during warmup, then a
// bandit-steered explore share plus a corpus-mutation share. Slot order
// is canonical (explore slots, then mutation slots) — the fold pairs
// verdicts back to plans positionally.
func (sr *searcher) plan(g int) ([]planned, error) {
	size := sr.cfg.GenerationSize
	mut := 0
	if g >= sr.cfg.Warmup && len(sr.corpus) > 0 {
		mut = size * sr.cfg.MutationShare / 100
	}
	explore := size - mut
	plans := make([]planned, 0, size)
	pend := make([]int, len(sr.arms))
	for i := 0; i < explore; i++ {
		var arm int
		if g < sr.cfg.Warmup {
			arm = sr.warmArm(g, i)
		} else {
			arm = sr.pickArm(g, i, pend)
			sr.banditPicks++
			sr.ins.banditPicks.Inc()
		}
		pend[arm]++
		src := prng.NewSource(prng.Hash3(sr.cfg.Seed, streamSample, slotKey(g, i)))
		s, err := sr.reg.SampleFamilySpec(sr.cfg.Gen, sr.pool[arm], src)
		if err != nil {
			return nil, err
		}
		plans = append(plans, planned{spec: s, arm: arm})
	}
	for j := 0; j < mut; j++ {
		plans = append(plans, planned{spec: sr.mutate(g, j), arm: -1})
		sr.mutations++
		sr.ins.mutations.Inc()
	}
	return plans, nil
}

// warmArm draws a warmup family uniformly over the pool (respecting
// FamilyWeights when configured), hash-keyed so the pick is independent
// of every other stream.
func (sr *searcher) warmArm(g, i int) int {
	u := prng.Hash3(sr.cfg.Seed, streamWarm, slotKey(g, i))
	if sr.weights == nil {
		return int(u % uint64(len(sr.pool)))
	}
	t := 0
	for _, w := range sr.weights {
		t += w
	}
	x := int(u % uint64(t))
	for a, w := range sr.weights {
		x -= w
		if x < 0 {
			return a
		}
	}
	return len(sr.pool) - 1
}

// fold accounts one verdict: boundary cells, bandit reward, concentration
// counters or the warmup distribution, corpus candidacy, violations.
func (sr *searcher) fold(g int, p planned, v scenario.Verdict, cands *[]CorpusEntry) {
	sr.samples++
	sr.ins.samples.Inc()
	margins := sr.reg.Margins(v)
	violated := !v.OK || v.Err != ""
	for _, m := range margins {
		sr.observeBoundary(v.Spec.Family, m, v.ID)
	}
	if p.arm >= 0 {
		sr.arms[p.arm].Pulls++
		sr.arms[p.arm].RewardMilli += int64(reward(margins, v))
	}
	if len(margins) > 0 {
		rel, raw, metric := worstMargin(margins)
		sr.ins.relMargin.Observe(rel)
		if g < sr.cfg.Warmup {
			sr.warm.Add(rel)
		} else {
			sr.postWarmup++
			sr.ins.postWarmup.Inc()
			if rel <= sr.threshold {
				sr.bottom++
				sr.ins.bottomQuartile.Inc()
			}
		}
		if !violated {
			*cands = append(*cands, CorpusEntry{Spec: v.Spec, Margin: raw, Metric: metric, Rel: rel})
		}
	}
	if violated {
		sr.recordViolation(v)
	}
}

// worstMargin returns the tightest margin of a non-empty margin list: the
// minimum per-mille value with its raw value and metric.
func worstMargin(ms []scenario.Margin) (rel, raw int, metric string) {
	rel, raw, metric = ms[0].Rel, ms[0].Value, ms[0].Metric
	for _, m := range ms[1:] {
		if m.Rel < rel {
			rel, raw, metric = m.Rel, m.Value, m.Metric
		}
	}
	return rel, raw, metric
}

// reward scores one verdict for the bandit, in per-mille: tight surviving
// margins reward high (1000−rel), predicate violations max out at 1000,
// execution errors carry no signal.
func reward(ms []scenario.Margin, v scenario.Verdict) int {
	if v.Err != "" {
		return 0
	}
	if !v.OK {
		return 1000
	}
	if len(ms) == 0 {
		return 0
	}
	rel, _, _ := worstMargin(ms)
	if rel < 0 {
		rel = 0
	}
	if rel > 1000 {
		rel = 1000
	}
	return 1000 - rel
}

// observeBoundary folds one margin into its (family, metric) boundary
// cell.
func (sr *searcher) observeBoundary(family string, m scenario.Margin, specID string) {
	key := family + "\x00" + m.Metric
	i, ok := sr.rowIdx[key]
	if !ok {
		i = len(sr.rows)
		sr.rowIdx[key] = i
		sr.rows = append(sr.rows, BoundaryRow{
			Family: family, Metric: m.Metric,
			Min: m.Value, RelMin: m.Rel, SpecID: specID,
		})
		sr.rows[i].Count = 1
		return
	}
	r := &sr.rows[i]
	r.Count++
	if m.Value < r.Min {
		r.Min = m.Value
		r.SpecID = specID
	}
	if m.Rel < r.RelMin {
		r.RelMin = m.Rel
	}
}

// recordViolation stores a violation, shrinking it into a minimal
// reproducer while the minimize budget lasts.
func (sr *searcher) recordViolation(v scenario.Verdict) {
	viol := Violation{ID: v.ID, Spec: v.Spec, Outcome: v.Outcome, Violation: v.Violation, Err: v.Err}
	if v.Err == "" && sr.minimized < sr.cfg.MaxMinimize {
		m := sr.reg.Minimize(v.Spec)
		viol.Minimized = &m
		viol.MinimizedID = m.ID()
		sr.minimized++
		sr.ins.minimized.Inc()
	}
	sr.viols = append(sr.viols, viol)
	sr.ins.violations.Inc()
	sr.cfg.Trace.Emit("violation-found", map[string]any{
		"id":        v.ID,
		"minimized": viol.MinimizedID,
	})
}

// emitGeneration traces one completed generation's deterministic summary
// — the margin-percentile trajectory rides these events.
func (sr *searcher) emitGeneration(g int) {
	tight := 0
	if len(sr.corpus) > 0 {
		tight = sr.corpus[0].Rel
	}
	sr.cfg.Trace.Emit("generation", map[string]any{
		"gen":        g,
		"samples":    sr.samples,
		"mutations":  sr.mutations,
		"corpus":     len(sr.corpus),
		"tightest":   tight,
		"threshold":  sr.threshold,
		"postWarmup": sr.postWarmup,
		"bottom":     sr.bottom,
		"violations": len(sr.viols),
	})
}

// instruments bundles the search.* telemetry; all fields are nil-safe
// no-ops without a telemetry registry.
type instruments struct {
	generations    *telemetry.Counter
	samples        *telemetry.Counter
	mutations      *telemetry.Counter
	banditPicks    *telemetry.Counter
	violations     *telemetry.Counter
	minimized      *telemetry.Counter
	postWarmup     *telemetry.Counter
	bottomQuartile *telemetry.Counter
	corpusSize     *telemetry.Gauge
	relMargin      *telemetry.Hist
}

func newInstruments(t *scenario.Telemetry) instruments {
	reg := t.Registry()
	return instruments{
		generations:    reg.Counter("search.generations"),
		samples:        reg.Counter("search.samples"),
		mutations:      reg.Counter("search.mutations"),
		banditPicks:    reg.Counter("search.banditPicks"),
		violations:     reg.Counter("search.violations"),
		minimized:      reg.Counter("search.minimized"),
		postWarmup:     reg.Counter("search.postWarmup"),
		bottomQuartile: reg.Counter("search.bottomQuartile"),
		corpusSize:     reg.Gauge("search.corpusSize"),
		relMargin:      reg.Hist("search.relMargin"),
	}
}
