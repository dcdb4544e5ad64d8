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
// Every snapshot is retained: random access over the whole horizon,
// serializable, replayable. Trace emission and checker replay (mirror
// construction, convergence, connected-over-time verification) read it.
type Recorded struct {
	r     ring.Ring
	snaps []ring.EdgeSet
}

// NewRecorded creates an empty trace over an n-node ring.
func NewRecorded(n int) *Recorded { return &Recorded{r: ring.New(n)} }

// Record captures g over the instants [0, horizon).
func Record(g EvolvingGraph, horizon int) *Recorded {
	rec := &Recorded{r: g.Ring(), snaps: make([]ring.EdgeSet, 0, horizon)}
	// One scratch set filled in place per instant; Append's clone is the
	// single per-instant allocation.
	scratch := ring.NewEdgeSet(g.Ring().Edges())
	for t := 0; t < horizon; t++ {
		EdgesInto(g, t, &scratch)
		rec.Append(scratch)
	}
	return rec
}

// Append adds the presence set of the next instant. The set's capacity must
// match the ring's edge count. The set is copied into a fresh clone.
func (rec *Recorded) Append(s ring.EdgeSet) {
	if s.Size() != rec.r.Edges() {
		panic(fmt.Sprintf("dyngraph: snapshot size %d does not match ring %d", s.Size(), rec.r.Edges()))
	}
	rec.snaps = append(rec.snaps, s.Clone())
}

// Horizon returns the number of recorded instants.
func (rec *Recorded) Horizon() int { return len(rec.snaps) }

// at returns the stored presence set of instant t, which must satisfy
// 0 <= t < Horizon(); other instants are a programming error.
func (rec *Recorded) at(t int) ring.EdgeSet {
	if t < 0 || t >= rec.Horizon() {
		panic(fmt.Sprintf("dyngraph: instant %d outside recorded range [0,%d)", t, rec.Horizon()))
	}
	return rec.snaps[t]
}

// Ring implements EvolvingGraph.
func (rec *Recorded) Ring() ring.Ring { return rec.r }

// Present implements EvolvingGraph. Instants at or beyond the horizon reuse
// the final snapshot; an empty trace has no edges.
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

// recordedJSON is the serialization schema: one []int of present edges per
// instant.
type recordedJSON struct {
	Nodes int     `json:"nodes"`
	Snaps [][]int `json:"snapshots"`
}

// MarshalJSON implements json.Marshaler.
func (rec *Recorded) MarshalJSON() ([]byte, error) {
	out := recordedJSON{Nodes: rec.r.Size(), Snaps: make([][]int, len(rec.snaps))}
	for i, s := range rec.snaps {
		out.Snaps[i] = s.Edges()
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
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
// tested in the package tests.
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
// Braud-Santoni et al. (package convergence).
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
