package scenario

import (
	"fmt"

	"pef/internal/durable"
	"pef/internal/metrics"
)

// Checkpoint is the serialized state of a partially executed campaign:
// the resolved configuration, how many scenarios of the canonical stream
// have been aggregated, and the complete aggregation state. Because the
// aggregate is merge-based, resuming from a checkpoint and finishing the
// stream reproduces the uninterrupted campaign's reports byte for byte —
// specs are never stored, only re-derived from (generator, seeds, count).
type Checkpoint struct {
	// Version is the scenario format version the checkpoint was written
	// under.
	Version int `json:"version"`
	// Generator, Gen, Count and Seeds pin the campaign the checkpoint
	// belongs to; Resume adopts them and rejects conflicting overrides.
	Generator string    `json:"generator"`
	Gen       GenConfig `json:"gen"`
	Count     int       `json:"count"`
	Seeds     []uint64  `json:"seeds"`
	// Start and End delimit the contiguous block of the canonical stream
	// this checkpoint's process is responsible for: [0, total) for whole
	// campaigns (End 0 is normalized to total, keeping pre-shard
	// checkpoints readable), the shard block for `-shard-index/-shard-
	// count` runs. MergeCheckpoints tiles completed blocks back into the
	// whole-campaign aggregate.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Done is the number of aggregated scenarios of the block: resuming
	// skips exactly Start+Done generated scenarios and finishes at End.
	Done int `json:"done"`
	// OK, Families, Scalars and Violations are the aggregate state.
	OK         int                   `json:"ok"`
	Families   []FamilyStats         `json:"families,omitempty"`
	Scalars    []metrics.ScalarState `json:"scalars,omitempty"`
	Violations []Verdict             `json:"violations,omitempty"`
	// Checksum is the durable envelope's content checksum: Encode always
	// writes it and DecodeCheckpoint verifies it when present (checkpoints
	// from before the field lack it), so a corrupt checkpoint fails loudly
	// instead of resuming a silently diverged campaign.
	Checksum string `json:"checksum,omitempty"`
}

// Checkpoint snapshots the aggregate as a resumable checkpoint. The
// snapshot is deep-copied: later Add calls on the aggregate never mutate
// an already-taken checkpoint, so periodic mid-stream checkpointing is
// safe.
func (a *Aggregate) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Version:    Version,
		Generator:  a.Generator,
		Gen:        a.Gen,
		Count:      a.Count,
		Seeds:      append([]uint64(nil), a.Seeds...),
		Start:      a.start,
		End:        a.end,
		Done:       a.done,
		OK:         a.ok,
		Families:   append([]FamilyStats(nil), a.families...),
		Scalars:    a.sweep.ScalarStates(), // already copies entry slices
		Violations: append([]Verdict(nil), a.violations...),
	}
}

// restore folds a checkpoint's prefix into a fresh aggregate whose
// configuration was already adopted from it.
func (a *Aggregate) restore(c *Checkpoint) error {
	if err := c.validate(); err != nil {
		return err
	}
	a.done = c.Done
	a.ok = c.OK
	a.families = append([]FamilyStats(nil), c.Families...)
	for i, fs := range a.families {
		a.familyIdx[fs.Family] = i
	}
	if err := a.sweep.RestoreScalars(c.Scalars); err != nil {
		return err
	}
	a.violations = append([]Verdict(nil), c.Violations...)
	return nil
}

// validate checks internal consistency so corrupt checkpoints fail before
// a resumed campaign silently diverges.
func (c *Checkpoint) validate() error {
	if c.Version != Version {
		return fmt.Errorf("scenario: unsupported checkpoint version %d (want %d)", c.Version, Version)
	}
	if c.Count < 1 || len(c.Seeds) == 0 {
		return fmt.Errorf("scenario: checkpoint lacks campaign shape (count=%d, %d seeds)", c.Count, len(c.Seeds))
	}
	total := c.Count * len(c.Seeds)
	end := c.effEnd(total)
	if c.Start < 0 || c.Start > end || end > total {
		return fmt.Errorf("scenario: checkpoint block [%d, %d) outside campaign of %d scenarios", c.Start, end, total)
	}
	if c.Done < 0 || c.Start+c.Done > end {
		return fmt.Errorf("scenario: checkpoint Done=%d outside its block [%d, %d)", c.Done, c.Start, end)
	}
	if c.OK < 0 || c.OK > c.Done {
		return fmt.Errorf("scenario: checkpoint OK=%d exceeds Done=%d", c.OK, c.Done)
	}
	runs := 0
	for _, fs := range c.Families {
		runs += fs.Runs
	}
	if runs != c.Done {
		return fmt.Errorf("scenario: checkpoint family runs %d disagree with Done=%d", runs, c.Done)
	}
	// The aggregate maintains len(violations) == done-ok by construction;
	// a truncated violation list would silently drop report sections after
	// resume.
	if len(c.Violations) != c.Done-c.OK {
		return fmt.Errorf("scenario: checkpoint carries %d violations for Done=%d OK=%d (want %d)",
			len(c.Violations), c.Done, c.OK, c.Done-c.OK)
	}
	return nil
}

// effEnd resolves the block end: 0 (pre-shard checkpoints never encoded
// one) means the whole campaign.
func (c *Checkpoint) effEnd(total int) int {
	if c.End == 0 {
		return total
	}
	return c.End
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

// DecodeCheckpoint parses and validates an encoded checkpoint,
// verifying the content checksum when one is present.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c, err := durable.Decode(data, checksumField)
	if err != nil {
		return nil, fmt.Errorf("scenario: checkpoint %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}
