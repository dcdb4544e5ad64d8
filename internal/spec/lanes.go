package spec

import (
	"math/bits"

	"pef/internal/fsync"
)

// LaneVisits is the lockstep-engine form of VisitTracker and
// ConfinementTracker in one: it consumes per-node lane-occupancy words
// (bit l of occupied[v] = "some robot of lane l stands on node v") and
// maintains, per lane, exactly the quantities the scenario oracle reads —
// coverage, cover time, per-node revisit gaps, the visited-at-least-twice
// predicate, and the distinct-nodes-ever-visited count (which equals
// coverage: both are the cardinality of the ever-visited set).
//
// Most state is word-parallel (ever/twice/coverage words folded with
// OR/AND per node); only the revisit-gap bookkeeping iterates the set
// bits of each instant's occupancy, because gaps are genuinely per
// (node, lane) integers. Report(l, instants) reproduces the scalar
// VisitTracker.Report for lane l bit for bit — the differential tests in
// lanes_test.go drive both trackers with identical position streams and
// require equal reports. Lanes may run on rings of different sizes (a
// mixed-ring lockstep block): a lane's coverage, gaps and reports span
// only the nodes of its own ring.
type LaneVisits struct {
	rings     []fsync.LaneRing // ascending, as LockstepSimulator.Rings
	size      [64]int          // per lane: its ring's nodes
	lastVisit []int32          // (node, lane) last visit instant, -1 if never; index v*64+l
	maxGap    []int32          // (node, lane) largest closed revisit gap
	ever      []uint64         // per node: lanes that ever visited it
	twice     []uint64         // per node: lanes that visited it at least twice
	complete  uint64           // lanes whose ever-set covers every node
	coverTime []int32          // per lane: first instant of full coverage
}

// NewLaneVisits creates a tracker; Reset arms it for a block's rings.
func NewLaneVisits() *LaneVisits { return &LaneVisits{} }

// Reset re-arms the tracker for a fresh lockstep run over rings, the
// block's ring sizes in ascending order with their lanes
// (LockstepSimulator.Rings), reusing its backing storage — the pooling
// hook mirroring VisitTracker.Reset.
func (lv *LaneVisits) Reset(rings []fsync.LaneRing) {
	lv.rings = append(lv.rings[:0], rings...)
	lv.size = [64]int{}
	for _, g := range rings {
		for b := g.Mask; b != 0; b &= b - 1 {
			lv.size[bits.TrailingZeros64(b)] = g.Size
		}
	}
	n := rings[len(rings)-1].Size // the widest ring
	lv.lastVisit = resizeInt32s(lv.lastVisit, n*64)
	lv.maxGap = resizeInt32s(lv.maxGap, n*64)
	lv.ever = resizeWords(lv.ever, n)
	lv.twice = resizeWords(lv.twice, n)
	lv.complete = 0
	if lv.coverTime == nil {
		lv.coverTime = make([]int32, 64)
	}
	for i := range lv.lastVisit {
		lv.lastVisit[i] = -1
		lv.maxGap[i] = 0
	}
	for v := 0; v < n; v++ {
		lv.ever[v] = 0
		lv.twice[v] = 0
	}
	for l := range lv.coverTime {
		lv.coverTime[l] = -1
	}
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Record folds the configuration of instant t into the tracker for every
// lane whose bit is set in mask (retired lanes pass mask 0 bits and are
// untouched). Instants must arrive in increasing order per lane, starting
// with the initial configuration at t = 0 — the same stream the scalar
// trackers observe via Before/After snapshots.
func (lv *LaneVisits) Record(t int, occupied []uint64, mask uint64) {
	if mask == 0 {
		return
	}
	t32 := int32(t)
	// andAcc holds the lanes that visited every node so far; a ring's lanes
	// are complete when it holds them at the ring's last node.
	andAcc, full, v := ^uint64(0), uint64(0), 0
	for _, g := range lv.rings {
		for ; v < g.Size; v++ {
			w := occupied[v] & mask
			if w != 0 {
				ever := lv.ever[v]
				// First visits: the wait from the start of the execution
				// counts as a gap (a node first visited at t waited t
				// instants). Repeat visits close a (t - lastVisit) gap and
				// certify the second visit.
				lv.twice[v] |= w & ever
				base := v << 6
				for b := w; b != 0; b &= b - 1 {
					l := bits.TrailingZeros64(b)
					idx := base + l
					if ever&(1<<uint(l)) == 0 {
						if t32 > lv.maxGap[idx] {
							lv.maxGap[idx] = t32
						}
					} else if gap := t32 - lv.lastVisit[idx]; gap > lv.maxGap[idx] {
						lv.maxGap[idx] = gap
					}
					lv.lastVisit[idx] = t32
				}
				lv.ever[v] = ever | w
			}
			andAcc &= lv.ever[v]
		}
		full |= andAcc & g.Mask
	}
	// Lanes that just reached full coverage record this instant as their
	// cover time.
	newly := full & mask &^ lv.complete
	for b := newly; b != 0; b &= b - 1 {
		lv.coverTime[bits.TrailingZeros64(b)] = t32
	}
	lv.complete |= newly
}

// Skip carries lane l forward by s rounds without recording them, for a
// lane whose run repeats with the given period and that retired at
// instant t at least two periods into its cycle, with s a multiple of the
// period (fsync.LockstepSimulator.Lasso). Every node visited in the cycle
// was visited within the last period, and its last visit moves s instants
// later; every other node keeps its last visit. Gaps, coverage, cover time
// and second visits are already final, since the last two periods hold
// every gap the cycle closes. Report(l, t+s+1) then equals the report of
// the lane run to instant t+s.
func (lv *LaneVisits) Skip(l, t, period, s int) {
	since, s32 := int32(t-period), int32(s)
	for v := 0; v < lv.size[l]; v++ {
		if idx := v<<6 + l; lv.lastVisit[idx] > since {
			lv.lastVisit[idx] += s32
		}
	}
}

// Report summarizes lane l over the given number of observed instants,
// reproducing VisitTracker.Report for that lane exactly: open gaps reach
// the horizon, never-visited nodes count a full-horizon gap, and the
// worst node is the first one attaining the maximal gap in ascending
// node order.
//
// Visits is not materialized per node — per-lane exact counts are not
// tracked. It is nil when every node was visited at least twice (so
// MinVisits returns the horizon, ≥ 2 for any run of at least one round)
// and the single element {1} otherwise: exactly the information
// ExploreViolation's minVisits=2 threshold consumes, with the same
// rendered message (a covered node with fewer than two visits has
// exactly one).
func (lv *LaneVisits) Report(l, instants int) ExplorationReport {
	bit, n := uint64(1)<<uint(l), lv.size[l]
	rep := ExplorationReport{Nodes: n, Horizon: instants, CoverTime: -1}
	if lv.complete&bit != 0 {
		rep.CoverTime = int(lv.coverTime[l])
	}
	allTwice := true
	for v := 0; v < n; v++ {
		idx := v<<6 + l
		gap := int(lv.maxGap[idx])
		if lv.ever[v]&bit == 0 {
			gap = instants
			allTwice = false
		} else {
			rep.Covered++
			if lv.twice[v]&bit == 0 {
				allTwice = false
			}
			if open := instants - 1 - int(lv.lastVisit[idx]); open > gap {
				gap = open
			}
		}
		if gap > rep.MaxGap {
			rep.MaxGap = gap
			rep.WorstNode = v
		}
	}
	if !allTwice {
		rep.Visits = []int{1}
	}
	return rep
}

// Distinct returns lane l's count of distinct nodes ever visited — the
// quantity the confinement theorems bound, identical to
// ConfinementTracker.Distinct over the same stream (both count the
// ever-visited set).
func (lv *LaneVisits) Distinct(l int) int {
	bit := uint64(1) << uint(l)
	d := 0
	for v := 0; v < lv.size[l]; v++ {
		if lv.ever[v]&bit != 0 {
			d++
		}
	}
	return d
}

// LaneTowers is the lockstep-engine form of TowerInvariants: per lane it
// counts the rounds during which a tower existed and flags the lanes that
// broke Lemma 3.4 (a tower of 3 or more robots) or Lemma 3.3 (both robots
// of a 2-tower point the same global direction after Compute). Each round
// takes two calls around the engine's Step: Look reads the pre-round
// one-hot position rows, Compute the robots' post-Compute "points CW"
// words. Towers are counted word-parallel with the one/two/three-robot
// accumulators of a bit-sliced counter; the pre-round rows are kept only
// on rounds with a 2-tower, the only case Compute has to read them.
//
// Violation strings are not rendered: a flagged lane is replayed on the
// scalar TowerInvariants, which the differential tests in lanes_test.go
// pin against this checker (same tower rounds, flagged exactly when the
// scalar checker records a violation).
type LaneTowers struct {
	n, k    int
	pre     []uint64  // pre-round rows of a round with a 2-tower, pre[i*n+v]
	two     []uint64  // per node: lanes with exactly two robots on it this round
	pcw     []uint64  // per robot: post-Compute points-CW word
	pending bool      // the round in flight has a 2-tower
	rounds  [64]int32 // per lane: rounds during which a tower existed
	lemma34 uint64    // lanes that broke Lemma 3.4
	lemma33 uint64    // lanes that broke Lemma 3.3
}

// NewLaneTowers creates a checker; Reset arms it for a run shape.
func NewLaneTowers() *LaneTowers { return &LaneTowers{} }

// Reset re-arms the checker for a fresh lockstep run of k robots on an
// n-node ring, reusing its backing storage.
func (lt *LaneTowers) Reset(n, k int) {
	lt.n, lt.k = n, k
	lt.pre = resizeWords(lt.pre, k*n)
	lt.two = resizeWords(lt.two, n)
	lt.pcw = resizeWords(lt.pcw, k)
	lt.pending = false
	lt.rounds = [64]int32{}
	lt.lemma34, lt.lemma33 = 0, 0
}

// Look folds the pre-round configuration of the lanes in mask (the lanes
// about to execute the round): rows holds robot i's one-hot row at
// rows[i*n:(i+1)*n], as LockstepSimulator.Rows returns it before Step.
func (lt *LaneTowers) Look(rows []uint64, mask uint64) {
	n, k := lt.n, lt.k
	var towers, triples, twos uint64
	for v := 0; v < n; v++ {
		var one, dbl, tri uint64
		for i := 0; i < k; i++ {
			p := rows[i*n+v]
			tri |= dbl & p
			dbl |= one & p
			one |= p
		}
		dbl &= mask
		towers |= dbl
		triples |= tri
		lt.two[v] = dbl &^ tri
		twos |= lt.two[v]
	}
	for b := towers; b != 0; b &= b - 1 {
		lt.rounds[bits.TrailingZeros64(b)]++
	}
	lt.lemma34 |= triples & mask
	lt.pending = twos != 0
	if lt.pending {
		copy(lt.pre, rows[:k*n])
	}
}

// Compute completes the round Look saw: pointsCW(i) has bit l set iff
// lane l's robot i points clockwise after the round's Compute phase
// (LockstepSimulator.PointsCW after Step). A 2-tower whose robots do not
// split into one CW and one CCW robot breaks Lemma 3.3.
func (lt *LaneTowers) Compute(pointsCW func(i int) uint64) {
	if !lt.pending {
		return
	}
	n := lt.n
	for i := range lt.pcw {
		lt.pcw[i] = pointsCW(i)
	}
	for v := 0; v < n; v++ {
		w := lt.two[v]
		if w == 0 {
			continue
		}
		var cw, ccw uint64
		for i, d := range lt.pcw {
			p := lt.pre[i*n+v]
			cw |= p & d
			ccw |= p &^ d
		}
		lt.lemma33 |= w &^ (cw & ccw)
	}
}

// TowerRounds returns the number of rounds during which lane l had a
// tower, TowerInvariants.TowerRounds for that lane.
func (lt *LaneTowers) TowerRounds(l int) int { return int(lt.rounds[l]) }

// Lemma34 returns the mask of lanes that formed a tower of 3 or more
// robots.
func (lt *LaneTowers) Lemma34() uint64 { return lt.lemma34 }

// Lemma33 returns the mask of lanes where both robots of a 2-tower pointed
// the same global direction after Compute.
func (lt *LaneTowers) Lemma33() uint64 { return lt.lemma33 }
