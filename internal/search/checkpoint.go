package search

import (
	"fmt"

	"pef/internal/durable"
	"pef/internal/metrics"
	"pef/internal/scenario"
)

// CheckpointVersion is the search checkpoint/report format version.
const CheckpointVersion = 1

// Checkpoint is the serialized state of a partially executed search: the
// resolved configuration plus the complete steering state (bandit arms,
// near-violation corpus, warmup distribution, concentration counters,
// boundary cells, violations). Because the loop folds generations
// single-threaded and every draw is hash-keyed by (generation, slot),
// resuming from a checkpoint and finishing the run reproduces the
// uninterrupted search's boundary report byte for byte.
type Checkpoint struct {
	// Version is the search format version the checkpoint was written
	// under.
	Version int `json:"version"`
	// Seed through Gen pin the resolved search identity; Resume adopts
	// them and rejects conflicting overrides. MutationShare and
	// MaxMinimize encode "resolved to zero" as -1 so re-resolution cannot
	// turn an explicit "none" back into the default.
	Seed           uint64             `json:"seed"`
	Generations    int                `json:"generations"`
	GenerationSize int                `json:"generationSize"`
	Warmup         int                `json:"warmup"`
	MutationShare  int                `json:"mutationShare"`
	CorpusSize     int                `json:"corpusSize"`
	MaxMinimize    int                `json:"maxMinimize"`
	Gen            scenario.GenConfig `json:"gen"`
	// Done is the number of completed generations; resuming continues at
	// generation Done.
	Done int `json:"done"`
	// Samples, Mutations and BanditPicks are the loop counters.
	Samples     int `json:"samples"`
	Mutations   int `json:"mutations,omitempty"`
	BanditPicks int `json:"banditPicks,omitempty"`
	// Arms is the bandit state, in family pool order.
	Arms []ArmState `json:"arms"`
	// Corpus is the near-violation corpus, sorted by ascending margin.
	Corpus []CorpusEntry `json:"corpus,omitempty"`
	// Warm is the warmup rel-margin distribution (canonical entry list)
	// and Threshold its frozen bottom quartile once warmup completed.
	Warm      []metrics.DistEntry `json:"warm,omitempty"`
	Threshold int                 `json:"threshold,omitempty"`
	// PostWarmup and Bottom are the concentration counters.
	PostWarmup int `json:"postWarmup,omitempty"`
	Bottom     int `json:"bottom,omitempty"`
	// Rows is the boundary state in first-observation order.
	Rows []BoundaryRow `json:"rows,omitempty"`
	// Violations and Minimized are the violation log and spent shrink
	// budget.
	Violations []Violation `json:"violations,omitempty"`
	Minimized  int         `json:"minimized,omitempty"`
	// Checksum is the durable envelope's content checksum: Encode always
	// writes it and DecodeCheckpoint verifies it, so a corrupt checkpoint
	// fails loudly instead of resuming a silently diverged search.
	Checksum string `json:"checksum,omitempty"`
}

// checkpoint snapshots the searcher. The snapshot deep-copies every
// slice, so later generations never mutate an already-taken checkpoint.
func (sr *searcher) checkpoint() *Checkpoint {
	ms := sr.cfg.MutationShare
	if ms == 0 {
		ms = -1
	}
	mm := sr.cfg.MaxMinimize
	if mm == 0 {
		mm = -1
	}
	return &Checkpoint{
		Version:        CheckpointVersion,
		Seed:           sr.cfg.Seed,
		Generations:    sr.cfg.Generations,
		GenerationSize: sr.cfg.GenerationSize,
		Warmup:         sr.cfg.Warmup,
		MutationShare:  ms,
		CorpusSize:     sr.cfg.CorpusSize,
		MaxMinimize:    mm,
		Gen:            sr.cfg.Gen,
		Done:           sr.gen,
		Samples:        sr.samples,
		Mutations:      sr.mutations,
		BanditPicks:    sr.banditPicks,
		Arms:           append([]ArmState(nil), sr.arms...),
		Corpus:         append([]CorpusEntry(nil), sr.corpus...),
		Warm:           sr.warm.Entries(),
		Threshold:      sr.threshold,
		PostWarmup:     sr.postWarmup,
		Bottom:         sr.bottom,
		Rows:           append([]BoundaryRow(nil), sr.rows...),
		Violations:     append([]Violation(nil), sr.viols...),
		Minimized:      sr.minimized,
	}
}

// restore folds a checkpoint into a fresh searcher whose configuration
// was already adopted from it (so the pool and arms are laid out).
func (sr *searcher) restore(c *Checkpoint) error {
	if len(c.Arms) != len(sr.arms) {
		return fmt.Errorf("search: checkpoint carries %d bandit arms for a pool of %d families (registry or filter changed since the checkpoint)",
			len(c.Arms), len(sr.arms))
	}
	for i, a := range c.Arms {
		if a.Family != sr.arms[i].Family {
			return fmt.Errorf("search: checkpoint arm %d is family %q, pool has %q (registry or filter changed since the checkpoint)",
				i, a.Family, sr.arms[i].Family)
		}
	}
	sr.arms = append(sr.arms[:0], c.Arms...)
	sr.gen = c.Done
	sr.samples = c.Samples
	sr.mutations = c.Mutations
	sr.banditPicks = c.BanditPicks
	sr.corpus = append([]CorpusEntry(nil), c.Corpus...)
	for _, e := range sr.corpus {
		sr.corpusIdx[e.Spec.ID()] = true
	}
	warm, err := metrics.DistFromEntries(c.Warm)
	if err != nil {
		return err
	}
	sr.warm = warm
	sr.threshold = c.Threshold
	sr.postWarmup = c.PostWarmup
	sr.bottom = c.Bottom
	sr.rows = append([]BoundaryRow(nil), c.Rows...)
	for i, r := range sr.rows {
		sr.rowIdx[r.Family+"\x00"+r.Metric] = i
	}
	sr.viols = append([]Violation(nil), c.Violations...)
	sr.minimized = c.Minimized
	return nil
}

// validate checks internal consistency so corrupt checkpoints fail
// before a resumed search silently diverges.
func (c *Checkpoint) validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("search: unsupported checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	if c.Generations < 1 || c.GenerationSize < 1 {
		return fmt.Errorf("search: checkpoint lacks run shape (generations=%d, size=%d)", c.Generations, c.GenerationSize)
	}
	if c.Warmup < 1 || c.Warmup > c.Generations {
		return fmt.Errorf("search: checkpoint warmup %d outside [1, %d]", c.Warmup, c.Generations)
	}
	if c.MutationShare < -1 || c.MutationShare == 0 || c.MutationShare > 100 {
		return fmt.Errorf("search: checkpoint mutation share %d outside {-1} ∪ [1, 100]", c.MutationShare)
	}
	if c.CorpusSize < 1 {
		return fmt.Errorf("search: checkpoint corpus bound %d below 1", c.CorpusSize)
	}
	if c.MaxMinimize < -1 || c.MaxMinimize == 0 {
		return fmt.Errorf("search: checkpoint minimize budget %d outside {-1} ∪ [1, ∞)", c.MaxMinimize)
	}
	if c.Done < 0 || c.Done > c.Generations {
		return fmt.Errorf("search: checkpoint Done=%d outside [0, %d]", c.Done, c.Generations)
	}
	if c.Samples != c.Done*c.GenerationSize {
		return fmt.Errorf("search: checkpoint carries %d samples for %d generations of %d (want %d)",
			c.Samples, c.Done, c.GenerationSize, c.Done*c.GenerationSize)
	}
	if c.Mutations < 0 || c.Mutations > c.Samples {
		return fmt.Errorf("search: checkpoint mutations %d outside [0, %d]", c.Mutations, c.Samples)
	}
	if len(c.Arms) == 0 {
		return fmt.Errorf("search: checkpoint has no bandit arms")
	}
	pulls := 0
	for i, a := range c.Arms {
		if a.Family == "" || a.Pulls < 0 || a.RewardMilli < 0 {
			return fmt.Errorf("search: checkpoint arm %d is malformed (%+v)", i, a)
		}
		pulls += a.Pulls
	}
	if pulls+c.Mutations != c.Samples {
		return fmt.Errorf("search: checkpoint arm pulls %d + mutations %d disagree with %d samples",
			pulls, c.Mutations, c.Samples)
	}
	if len(c.Corpus) > c.CorpusSize {
		return fmt.Errorf("search: checkpoint corpus of %d exceeds its bound %d", len(c.Corpus), c.CorpusSize)
	}
	for i := 1; i < len(c.Corpus); i++ {
		if c.Corpus[i].Rel < c.Corpus[i-1].Rel {
			return fmt.Errorf("search: checkpoint corpus is not sorted by margin at entry %d", i)
		}
	}
	if c.Bottom < 0 || c.Bottom > c.PostWarmup {
		return fmt.Errorf("search: checkpoint bottom-quartile count %d exceeds post-warmup count %d", c.Bottom, c.PostWarmup)
	}
	mini := 0
	for _, v := range c.Violations {
		if v.Minimized != nil {
			mini++
		}
	}
	if mini != c.Minimized {
		return fmt.Errorf("search: checkpoint minimized budget %d disagrees with %d shrunk violations", c.Minimized, mini)
	}
	return nil
}

// Encode renders the checkpoint as indented JSON with its content
// checksum filled in.
func (c *Checkpoint) Encode() ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return durable.Encode(*c, checksumField)
}

func checksumField(c *Checkpoint) *string { return &c.Checksum }

// DecodeCheckpoint parses and validates an encoded search checkpoint,
// verifying the content checksum when one is present.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c, err := durable.Decode(data, checksumField)
	if err != nil {
		return nil, fmt.Errorf("search: checkpoint %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}
