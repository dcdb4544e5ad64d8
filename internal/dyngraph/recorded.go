package dyngraph

import (
	"encoding/json"
	"fmt"

	"pef/internal/ring"
)

// Recorded is a finite evolving-graph trace: presence sets for the instants
// [0, Horizon). It is the bridge between adaptive adversaries (which decide
// presence online, as a function of robot positions) and the offline
// analysis machinery: the simulator records their decisions and hands the
// result to journeys, convergence checks, and renderers.
//
// Queries beyond the horizon return the last recorded snapshot, so that a
// Recorded obtained from an adversary with a stable suffix can stand in for
// the infinite graph it converges to.
//
// A trace records in one of two modes:
//
//   - Full history (NewRecorded): every snapshot is retained; random access
//     over the whole horizon, serializable, replayable. Required by trace
//     emission and checker replay (mirror construction, convergence).
//   - Streaming (NewStreamingRecorded): only a sliding window of W
//     snapshots is retained in a ring buffer whose slots are reused, so a
//     campaign run holds O(W) instead of O(horizon) edge sets. Random
//     access is limited to the window; reads of evicted instants panic.
//
// Both modes maintain online recurrence accumulators per appended instant
// (last presence, longest absence run, trailing absence), so the
// suffix-window analyses the experiments need — EventuallyMissing,
// RecurrentAt, MaxRun, Bound — never require the evicted history.
type Recorded struct {
	r     ring.Ring
	snaps []ring.EdgeSet // full history, or the streaming ring buffer
	// window is the streaming ring-buffer capacity; 0 means full history.
	window int
	// count is the number of appended instants in streaming mode (full
	// mode uses len(snaps) directly).
	count int

	// Online recurrence accumulators, updated on every Append.
	lastPresent []int // last instant each edge was present, -1 if never
	longestGone []int // longest completed absence run per edge
	goneStart   []int // start of the current absence run, -1 if present
}

// NewRecorded creates an empty full-history trace over an n-node ring.
func NewRecorded(n int) *Recorded {
	rec := &Recorded{r: ring.New(n)}
	rec.initStats()
	return rec
}

// NewStreamingRecorded creates an empty streaming trace over an n-node
// ring retaining a sliding window of window snapshots (window >= 1).
func NewStreamingRecorded(n, window int) *Recorded {
	if window < 1 {
		panic(fmt.Sprintf("dyngraph: streaming window %d below 1", window))
	}
	rec := &Recorded{r: ring.New(n), window: window, snaps: make([]ring.EdgeSet, 0, window)}
	rec.initStats()
	return rec
}

func (rec *Recorded) initStats() {
	edges := rec.r.Edges()
	rec.lastPresent = make([]int, edges)
	rec.longestGone = make([]int, edges)
	rec.goneStart = make([]int, edges)
	for e := 0; e < edges; e++ {
		rec.lastPresent[e] = -1
		rec.longestGone[e] = 0
		rec.goneStart[e] = -1
	}
}

// Record captures g over the instants [0, horizon).
func Record(g EvolvingGraph, horizon int) *Recorded {
	rec := &Recorded{r: g.Ring(), snaps: make([]ring.EdgeSet, 0, horizon)}
	rec.initStats()
	// One scratch set filled in place per instant; Append's clone is the
	// single per-instant allocation.
	scratch := ring.NewEdgeSet(g.Ring().Edges())
	for t := 0; t < horizon; t++ {
		EdgesInto(g, t, &scratch)
		rec.Append(scratch)
	}
	return rec
}

// Streaming reports whether the trace records in streaming (bounded
// window) mode.
func (rec *Recorded) Streaming() bool { return rec.window > 0 }

// Window returns the streaming window size, 0 for full-history traces.
func (rec *Recorded) Window() int { return rec.window }

// Append adds the presence set of the next instant. The set's capacity must
// match the ring's edge count. The set is copied: in full mode into a fresh
// clone, in streaming mode into the reused ring-buffer slot.
func (rec *Recorded) Append(s ring.EdgeSet) {
	if s.Size() != rec.r.Edges() {
		panic(fmt.Sprintf("dyngraph: snapshot size %d does not match ring %d", s.Size(), rec.r.Edges()))
	}
	t := rec.Horizon()
	rec.updateStats(t, s)
	if rec.window == 0 {
		rec.snaps = append(rec.snaps, s.Clone())
		return
	}
	if len(rec.snaps) < rec.window {
		rec.snaps = append(rec.snaps, s.Clone())
	} else {
		rec.snaps[t%rec.window].CopyFrom(s)
	}
	rec.count++
}

// updateStats folds the presence set of instant t into the online
// recurrence accumulators.
func (rec *Recorded) updateStats(t int, s ring.EdgeSet) {
	for e := 0; e < rec.r.Edges(); e++ {
		if s.Contains(e) {
			if rec.goneStart[e] >= 0 {
				if run := t - rec.goneStart[e]; run > rec.longestGone[e] {
					rec.longestGone[e] = run
				}
				rec.goneStart[e] = -1
			}
			rec.lastPresent[e] = t
		} else if rec.goneStart[e] < 0 {
			rec.goneStart[e] = t
		}
	}
}

// Horizon returns the number of recorded instants.
func (rec *Recorded) Horizon() int {
	if rec.window > 0 {
		return rec.count
	}
	return len(rec.snaps)
}

// Oldest returns the first instant still readable: 0 for full-history
// traces, Horizon - Window (clamped at 0) for streaming ones.
func (rec *Recorded) Oldest() int {
	if rec.window == 0 {
		return 0
	}
	if rec.count <= rec.window {
		return 0
	}
	return rec.count - rec.window
}

// at returns the stored presence set of instant t, which must satisfy
// Oldest() <= t < Horizon(). Reads of evicted instants are a programming
// error (an analysis that needs full history ran on a streaming trace).
func (rec *Recorded) at(t int) ring.EdgeSet {
	if t < rec.Oldest() || t >= rec.Horizon() {
		panic(fmt.Sprintf("dyngraph: instant %d outside retained range [%d,%d) of %s trace",
			t, rec.Oldest(), rec.Horizon(), rec.modeName()))
	}
	if rec.window > 0 {
		return rec.snaps[t%rec.window]
	}
	return rec.snaps[t]
}

func (rec *Recorded) modeName() string {
	if rec.window > 0 {
		return "streaming"
	}
	return "recorded"
}

// Ring implements EvolvingGraph.
func (rec *Recorded) Ring() ring.Ring { return rec.r }

// Present implements EvolvingGraph. Instants at or beyond the horizon reuse
// the final snapshot; an empty trace has no edges. On streaming traces,
// reading an instant older than the retained window panics.
func (rec *Recorded) Present(e, t int) bool {
	if t < 0 || rec.Horizon() == 0 {
		return false
	}
	if t >= rec.Horizon() {
		t = rec.Horizon() - 1
	}
	return rec.at(t).Contains(e)
}

// Snapshot returns a copy of the presence set at instant t (clamped to the
// horizon like Present).
func (rec *Recorded) Snapshot(t int) ring.EdgeSet {
	if rec.Horizon() == 0 {
		return ring.NewEdgeSet(rec.r.Edges())
	}
	if t < 0 {
		t = 0
	}
	if t >= rec.Horizon() {
		t = rec.Horizon() - 1
	}
	return rec.at(t).Clone()
}

// EdgesAtInto implements InPlaceGraph: the presence set is copied word by
// word into dst. Like Present, instants at or beyond the horizon reuse the
// final snapshot, and negative instants and an empty trace have no edges.
func (rec *Recorded) EdgesAtInto(t int, dst *ring.EdgeSet) {
	if t < 0 || rec.Horizon() == 0 {
		if dst.Size() != rec.r.Edges() {
			*dst = ring.NewEdgeSet(rec.r.Edges())
		}
		dst.Clear()
		return
	}
	dst.CopyFrom(rec.at(min(t, rec.Horizon()-1)))
}

// LastPresenceOnline returns the last instant at which edge e was present,
// from the online accumulators (no history scan), and ok=false if it was
// never present. Agrees with LastPresence(rec, e, rec.Horizon()) on full
// traces and stays available after eviction on streaming ones.
func (rec *Recorded) LastPresenceOnline(e int) (last int, ok bool) {
	if e < 0 || e >= rec.r.Edges() || rec.lastPresent[e] < 0 {
		return 0, false
	}
	return rec.lastPresent[e], true
}

// MaxAbsenceRunOnline returns the length of the longest absence run of
// edge e over the whole recorded horizon, counting the trailing
// (unresolved) run — the online counterpart of MaxAbsenceRun.
func (rec *Recorded) MaxAbsenceRunOnline(e int) int {
	longest := rec.longestGone[e]
	if rec.goneStart[e] >= 0 {
		if run := rec.Horizon() - rec.goneStart[e]; run > longest {
			longest = run
		}
	}
	return longest
}

// EventuallyMissingOnline returns the edges absent over the whole suffix
// window [Horizon-suffix, Horizon), in increasing order — the online
// counterpart of EventuallyMissingEdges, answered from the accumulators so
// streaming traces need not retain the suffix.
func (rec *Recorded) EventuallyMissingOnline(suffix int) []int {
	h := rec.Horizon()
	if suffix > h {
		suffix = h
	}
	var out []int
	for e := 0; e < rec.r.Edges(); e++ {
		if rec.lastPresent[e] < h-suffix {
			out = append(out, e)
		}
	}
	return out
}

// RecurrenceBoundOnline is the online counterpart of RecurrenceBound: the
// smallest Δ such that every edge is present at least once in every closed
// window of Δ instants, or ok=false when some edge looks eventually
// missing on this horizon.
func (rec *Recorded) RecurrenceBoundOnline() (delta int, ok bool) {
	h := rec.Horizon()
	delta = 1
	for e := 0; e < rec.r.Edges(); e++ {
		if rec.lastPresent[e] < 0 {
			return 0, false
		}
		completed := rec.longestGone[e]
		trailing := 0
		if rec.goneStart[e] >= 0 {
			trailing = h - rec.goneStart[e]
		}
		if trailing > completed {
			// The edge has been absent for longer than ever before and the
			// horizon cannot tell whether it will return.
			return 0, false
		}
		if completed+1 > delta {
			delta = completed + 1
		}
	}
	return delta, true
}

// recordedJSON is the serialization schema: one []int of present edges per
// instant.
type recordedJSON struct {
	Nodes int     `json:"nodes"`
	Snaps [][]int `json:"snapshots"`
}

// MarshalJSON implements json.Marshaler. Streaming traces have evicted
// part of their history and cannot be serialized.
func (rec *Recorded) MarshalJSON() ([]byte, error) {
	if rec.window > 0 {
		return nil, fmt.Errorf("dyngraph: streaming recorded trace is not serializable (window %d of %d instants retained)", rec.window, rec.Horizon())
	}
	out := recordedJSON{Nodes: rec.r.Size(), Snaps: make([][]int, len(rec.snaps))}
	for i, s := range rec.snaps {
		out.Snaps[i] = s.Edges()
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. Decoded traces are always
// full-history.
func (rec *Recorded) UnmarshalJSON(data []byte) error {
	var in recordedJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("dyngraph: decoding recorded trace: %w", err)
	}
	if in.Nodes < ring.MinSize {
		return fmt.Errorf("dyngraph: recorded trace has %d nodes, need at least %d", in.Nodes, ring.MinSize)
	}
	r := ring.New(in.Nodes)
	fresh := &Recorded{r: r}
	fresh.initStats()
	for i, edges := range in.Snaps {
		s := ring.NewEdgeSet(r.Edges())
		for _, e := range edges {
			if !r.ValidEdge(e) {
				return fmt.Errorf("dyngraph: recorded trace instant %d has invalid edge %d", i, e)
			}
			s.Add(e)
		}
		fresh.Append(s)
	}
	*rec = *fresh
	return nil
}

// DecomposeRemovals expresses a recorded schedule in the notation of the
// impossibility proofs: the list of (edge, interval) removals such that
// the schedule equals Static \ {(e1, τ1), ..., (ek, τk)} on its horizon.
// This is the inverse of the Without operator restricted to static bases;
// the property rec ≡ NewWithout(Static, DecomposeRemovals(rec)...) is
// tested in the package tests. Requires full history.
func (rec *Recorded) DecomposeRemovals() []Removal {
	var out []Removal
	for e := 0; e < rec.r.Edges(); e++ {
		ivs := AbsenceIntervals(rec, e, rec.Horizon())
		if len(ivs) > 0 {
			out = append(out, Removal{Edge: e, During: ivs})
		}
	}
	return out
}

// CommonPrefix returns the length of the longest common prefix of the two
// traces: the largest p such that the presence sets agree on every instant
// in [0, p). This is the quantity that drives the convergence framework of
// Braud-Santoni et al. (package convergence). Requires full history.
func CommonPrefix(a, b *Recorded) int {
	if a.r.Size() != b.r.Size() {
		return 0
	}
	n := min(a.Horizon(), b.Horizon())
	for t := 0; t < n; t++ {
		if !a.at(t).Equal(b.at(t)) {
			return t
		}
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
