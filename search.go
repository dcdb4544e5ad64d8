package pef

import (
	"context"

	"pef/internal/search"
)

// SearchConfig parameterizes a coverage-guided scenario search: a
// generational loop that runs campaign blocks through the engine, reads
// back per-family predicate margins, and steers the next generation's
// budget toward the theorem boundary — a seeded UCB bandit over the
// explorable-family pool plus parameter-space mutation of the
// lowest-margin surviving specs. Fixed-seed searches are byte-identical
// for any worker count and lane width; see SCENARIOS.md
// "Coverage-guided search".
type SearchConfig = search.Config

// SearchResult is a finished search: the boundary report (tightest
// observed margin per family × metric), the near-violation corpus, the
// bandit state, and every violation with its minimized reproducer.
type SearchResult = search.Result

// SearchProgress is the per-generation callback payload of a search.
type SearchProgress = search.Progress

// SearchCheckpoint is a resumable search snapshot; resuming reproduces
// the uninterrupted run's boundary report byte for byte.
type SearchCheckpoint = search.Checkpoint

// SearchBoundaryReport is the versioned boundary-report document
// pef benchdiff diffs run over run.
type SearchBoundaryReport = search.BoundaryReport

// ErrSearchHalted is the sentinel a SearchConfig.OnGeneration hook
// returns to stop a search cleanly after the current generation.
var ErrSearchHalted = search.ErrHalted

// Search runs a coverage-guided scenario search to completion (or a
// clean halt) and returns its final state.
func Search(ctx context.Context, cfg SearchConfig) (*SearchResult, error) {
	return search.Run(ctx, cfg)
}

// DecodeSearchCheckpoint parses and validates an encoded search
// checkpoint, verifying its content checksum.
func DecodeSearchCheckpoint(data []byte) (*SearchCheckpoint, error) {
	return search.DecodeCheckpoint(data)
}
