package spec

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// TowerInvariants checks, on every round, the two structural lemmas that
// drive the correctness proof of PEF_3+:
//
//	Lemma 3.4: no configuration of a well-initiated execution contains a
//	           tower of 3 or more robots.
//	Lemma 3.3: while a 2-robot tower exists, its robots consider opposite
//	           global directions (checked after the Compute phase of every
//	           round during which the tower exists).
//
// Violations are collected (capped) rather than fatal, so tests can assert
// emptiness and ablation experiments can count them.
type TowerInvariants struct {
	// MaxViolations caps the retained violation list (default 32).
	MaxViolations int

	violations []string
	towerRound int // rounds during which at least one tower existed
	maxSize    int // largest tower seen
}

// NewTowerInvariants returns a checker with the default cap.
func NewTowerInvariants() *TowerInvariants {
	return &TowerInvariants{MaxViolations: 32}
}

// ObserveRound implements fsync.Observer. Towers are found in ascending
// node order straight from the Before positions, with no allocation: each
// pass picks the smallest occupied node above the previous one, with its
// multiplicity and its two lowest robot indices (k is tiny, so the O(k²)
// rescan beats any per-round set).
func (ti *TowerInvariants) ObserveRound(ev *fsync.RoundEvent) {
	pos := ev.Before.Positions
	seen := false
	for prev := -1; ; {
		node, size, a, b := -1, 0, 0, 0
		for i, p := range pos {
			switch {
			case p <= prev || (node >= 0 && p > node):
			case p != node:
				node, size, a = p, 1, i
			default:
				if size == 1 {
					b = i
				}
				size++
			}
		}
		if node < 0 {
			return
		}
		prev = node
		if size < 2 {
			continue
		}
		if !seen {
			ti.towerRound++
			seen = true
		}
		if size > ti.maxSize {
			ti.maxSize = size
		}
		if size >= 3 {
			ti.violate("t=%d: tower of %d robots on node %d (Lemma 3.4)", ev.T, size, node)
			continue
		}
		// Lemma 3.3: after the Compute phase of this round the two robots
		// must consider opposite global directions. Directions after
		// Compute are the After snapshot's (Move does not change dir).
		da, db := ev.After.GlobalDirs[a], ev.After.GlobalDirs[b]
		if da == db {
			ti.violate("t=%d: tower robots %d,%d on node %d both consider %s after Compute (Lemma 3.3)",
				ev.T, a, b, node, da)
		}
	}
}

func (ti *TowerInvariants) violate(format string, args ...interface{}) {
	cap := ti.MaxViolations
	if cap == 0 {
		cap = 32
	}
	if len(ti.violations) < cap {
		ti.violations = append(ti.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the collected violation descriptions.
func (ti *TowerInvariants) Violations() []string {
	return append([]string(nil), ti.violations...)
}

// OK reports whether no violation occurred.
func (ti *TowerInvariants) OK() bool { return len(ti.violations) == 0 }

// TowerRounds returns the number of rounds during which a tower existed.
func (ti *TowerInvariants) TowerRounds() int { return ti.towerRound }

// MaxTowerSize returns the largest tower multiplicity observed.
func (ti *TowerInvariants) MaxTowerSize() int { return ti.maxSize }

// SentinelWatch detects the stabilization of Lemma 3.7: when the dynamics
// has an eventual missing edge e (absent forever from MissingFrom), the
// lemma states that eventually one robot is located forever at each
// extremity of e, pointing at e. The watch finds the earliest suffix start
// from which both extremities are continuously occupied by robots pointing
// at e.
type SentinelWatch struct {
	r           ring.Ring
	edge        int
	missingFrom int

	// lastBad is the last instant at which the sentinel condition did not
	// hold; the condition holds on the suffix (lastBad, horizon).
	lastBad int
	horizon int
}

// NewSentinelWatch watches edge (absent from missingFrom on) on ring r.
func NewSentinelWatch(r ring.Ring, edge, missingFrom int) *SentinelWatch {
	return &SentinelWatch{r: r, edge: edge, missingFrom: missingFrom, lastBad: -1}
}

// ObserveRound implements fsync.Observer.
func (sw *SentinelWatch) ObserveRound(ev *fsync.RoundEvent) {
	sw.check(ev.Before)
	sw.check(ev.After)
}

func (sw *SentinelWatch) check(snap *fsync.Snapshot) {
	if snap.T+1 > sw.horizon {
		sw.horizon = snap.T + 1
	}
	u, v := sw.r.EdgeEndpoints(sw.edge)
	// A sentinel on u points at the missing edge: the global direction from
	// u towards the edge.
	okU := sw.sentinelOn(snap, u, ring.CW) // edge e is the CW edge of u=e
	okV := sw.sentinelOn(snap, v, ring.CCW)
	if !(okU && okV) {
		if snap.T > sw.lastBad {
			sw.lastBad = snap.T
		}
	}
}

// sentinelOn reports whether some robot stands on node and points in the
// global direction d (towards the watched edge).
func (sw *SentinelWatch) sentinelOn(snap *fsync.Snapshot, node int, d ring.Direction) bool {
	for i, p := range snap.Positions {
		if p == node && snap.GlobalDirs[i] == d {
			return true
		}
	}
	return false
}

// Report returns the sentinel verdict at the current horizon.
func (sw *SentinelWatch) Report() SentinelReport {
	rep := SentinelReport{
		Edge:        sw.edge,
		MissingFrom: sw.missingFrom,
		Horizon:     sw.horizon,
	}
	if sw.lastBad < sw.horizon-1 {
		rep.Stabilized = true
		rep.StableFrom = sw.lastBad + 1
	}
	return rep
}

// SentinelReport is the Lemma 3.7 verdict.
type SentinelReport struct {
	// Edge is the watched eventual missing edge.
	Edge int
	// MissingFrom is the instant from which the edge is absent forever.
	MissingFrom int
	// Horizon is the number of observed instants.
	Horizon int
	// Stabilized reports that a suffix exists on which both extremities
	// are continuously occupied by robots pointing at the edge.
	Stabilized bool
	// StableFrom is the first instant of that suffix.
	StableFrom int
}

// String implements fmt.Stringer.
func (r SentinelReport) String() string {
	if !r.Stabilized {
		return fmt.Sprintf("sentinels on edge %d: not stabilized within horizon %d", r.Edge, r.Horizon)
	}
	return fmt.Sprintf("sentinels on edge %d: stable from t=%d (edge missing from %d, horizon %d)",
		r.Edge, r.StableFrom, r.MissingFrom, r.Horizon)
}
