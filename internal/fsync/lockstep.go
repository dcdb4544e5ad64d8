package fsync

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pef/internal/dyngraph"
	"pef/internal/ring"
	"pef/internal/robot"
)

// This file implements the lockstep engine: one simulator instance that
// advances up to 64 seed lanes bit-parallel. Robot positions are kept
// one-hot — pos[r][v] is a lane word whose bit l says "lane l's robot r
// stands on node v" — and the whole Look–Compute–Move cycle
// becomes a fixed boolean circuit over such words: every lane advances
// exactly as it would under the scalar Simulator (same per-lane edge
// schedules, same placements, same rule table), so lane l of a lockstep
// run is bit-identical to the corresponding scalar run. A lane with fewer
// robots than the widest keeps its missing robots' rows all zero: they
// never move, occupy a node or join a tower. Each lane runs its own rule
// table: Compute evaluates every distinct table of the block once per
// robot row and keeps each lane's outputs by mask, so a one-table block
// pays one circuit per row. Lanes may also run on rings of different
// sizes: the block is as wide as its widest ring, and a lane on a ring of
// m nodes uses nodes and edges 0..m-1 and leaves the rest zero. Only two
// things of a round depend on the ring, node 0's counter-clockwise edge
// and the moves across edge m-1 between node m-1 and node 0, so Step
// fixes those up per narrower ring in O(1) words per robot; a one-ring
// block has nothing to fix. The differential tests in lockstep_test.go
// pin that equivalence round by round.
//
// A lane's edges come from its own evolving graph (oblivious dynamics) or
// from the block's LaneAdversary. Adaptive adversaries without a lane form
// stay on the scalar path.
//
// An adversary lane is a finite-state run: its positions, directions and
// memory bits and the adversary's state words fix every later round. With
// LockstepConfig.Lasso set the block looks for the first repeat of that
// state with Brent's scheme (save it at t = 1, 2, 4, …, compare every
// round) and retires the lane early, at an instant whose remaining rounds
// to the horizon are whole periods; see Lasso.

// LaneAdversary is the lane form of an adaptive adversary: a boolean
// circuit over the lockstep configuration that decides E_t of all the
// lanes it drives. Declaring it here keeps package adversary importing
// fsync, not the reverse.
type LaneAdversary interface {
	// Ring returns the ring of lane l, one of the lanes it drives.
	Ring(l int) ring.Ring
	// EdgeColumns runs once per Step, before Compute, for the active
	// lanes it drives (mask): from the pre-round Rows and PointsCW of ls,
	// it sets their (clear) bit of cols[e] iff edge e of their ring is
	// present, leaving other bits alone (and a lane's bits past its ring
	// clear), and advances their state by one round.
	EdgeColumns(ls *LockstepSimulator, mask uint64, cols []uint64)
	// State returns the words that hold the adversary's state between
	// rounds, bit l of each for lane l: with the lane's configuration
	// they decide every later E_t. EdgeColumns updates them in place, so
	// the slice stays valid until the next reconfiguration; a stateless
	// adversary returns nil.
	State() []uint64
}

// LaneRun describes one seed lane of a lockstep run.
type LaneRun struct {
	// Table is the rule every robot of the lane runs; lanes of one block
	// may run different tables. Only rule tables have a lane form.
	Table robot.Table
	// Graph is the lane's edge schedule, or nil for a lane that the
	// block's Adversary drives. Its ring (or the adversary's Ring for the
	// lane) is the lane's ring, of at most 64 nodes (one presence word
	// per instant); lanes of one block may run on different rings.
	Graph dyngraph.EvolvingGraph
	// Placements give the lane's initial configuration; lanes may place
	// different numbers of robots. The usual Config rules apply:
	// towerless, valid nodes and chiralities, 1 <= k < n. Per-robot Core
	// overrides are not supported (every robot starts in the table's
	// initial state: dir = Left, memory 0).
	Placements []Placement
	// Horizon is the number of rounds to execute for this lane (>= 1).
	// Lanes retire individually once their horizon is reached, or, for an
	// adversary lane of a Lasso block, at the earlier instant Lasso
	// reports, from which the horizon lies whole periods ahead.
	Horizon int
}

// LockstepConfig assembles a lockstep simulation.
type LockstepConfig struct {
	// Lanes holds 1 to 64 seed lanes, of any rings and team sizes.
	Lanes []LaneRun
	// Adversary, when non-nil, drives every lane whose Graph is nil, each
	// on the ring its Ring reports for the lane.
	Adversary LaneAdversary
	// Lasso retires each adversary lane once its state repeats (see
	// LockstepSimulator.Lasso); graph lanes always run to their horizon.
	Lasso bool
	// Metrics, when non-nil, receives engine counters (word steps,
	// lane·rounds, word-graph fast-path hits, pool traffic). Step only
	// accumulates plain ints; the atomics are touched once per run at
	// Release/Reset, so the hot path stays 0 allocs/op and contention-free.
	Metrics *Metrics
}

// LockstepSimulator executes synchronous rounds for up to 64 lanes at
// once. Create with NewLockstep (or AcquireLockstep, which reuses a
// pooled instance), then call Step until Done.
type LockstepSimulator struct {
	r      ring.Ring // the widest ring: the block's width
	n, k   int
	lanes  int
	t      int
	active uint64 // lanes with t < horizons[l]

	rings []LaneRing // the block's ring sizes, ascending; the last is r

	tables   []laneTable              // the block's distinct rule tables
	placed   []uint64                 // per robot: lanes that place it
	horizons []int                    // per lane: the retirement instant, its horizon or earlier at its lasso
	dirRight []uint64                 // per robot: bit l = lane l's dir is Right
	moved    []uint64                 // per robot: bit l = lane l's memory bit
	chirCW   []uint64                 // per robot: bit l = lane l is right-is-CW
	graphs   []dyngraph.EvolvingGraph // per lane; nil for adversary lanes
	adv      LaneAdversary
	advLanes uint64 // lanes the adversary drives

	// Lasso detection: the adversary lanes still looking for a repeat,
	// their state words as of instant savedAt (0: none saved yet), and
	// per lane the detection instant, period and skipped rounds.
	seek     uint64
	advState []uint64
	saved    []uint64
	savedAt  int
	lassoAt  [64]int
	period   [64]int
	skip     [64]int

	// Run-local telemetry accumulators: plain ints bumped by Step and
	// flushed to metrics once per run (Release or re-Reset).
	metrics       *Metrics
	statRounds    int // word steps executed
	statLaneSteps int // active lanes summed over steps
	statWordFast  int // lane-instants served by a kernel (InPlaceGraph or the adversary)
	statLasso     int // lanes retired at their lasso
	statSkipped   int // rounds those lanes skipped

	// Steady-state scratch, sized once per Reset.
	sets []ring.EdgeSet // per lane materialization buffer
	cols []uint64       // per edge: lane presence column
	pos  []uint64       // k*n one-hot positions, pos[r*n+v]
	next []uint64       // per node move scratch
	mCW  []uint64       // per node move scratch
	mCCW []uint64       // per node move scratch
	occ  []uint64       // per node: any-robot occupancy at the current instant
}

// LaneRing is one ring size of a lockstep block and the lanes on it.
type LaneRing struct {
	Size int
	Mask uint64
}

// laneTable is one distinct rule table of a block and the lanes running it.
type laneTable struct {
	t    robot.Table
	mask uint64
}

// NewLockstep validates the configuration and builds a lockstep simulator
// positioned at time 0.
func NewLockstep(cfg LockstepConfig) (*LockstepSimulator, error) {
	ls := &LockstepSimulator{}
	if err := ls.Reset(cfg); err != nil {
		return nil, err
	}
	return ls, nil
}

// Reset reconfigures the simulator in place for a fresh run at time 0,
// reusing its backing slices where shapes allow.
func (ls *LockstepSimulator) Reset(cfg LockstepConfig) error {
	ls.flushMetrics() // a direct re-Reset still credits the finished run
	lanes := len(cfg.Lanes)
	if lanes == 0 || lanes > 64 {
		return fmt.Errorf("fsync: %d lanes outside [1,64]", lanes)
	}
	var sizes [64]int // per lane: its ring size
	k := 0
	ls.rings = ls.rings[:0]
	for l, lane := range cfg.Lanes {
		var r ring.Ring
		switch {
		case lane.Graph != nil:
			r = lane.Graph.Ring()
		case cfg.Adversary != nil:
			r = cfg.Adversary.Ring(l)
		default:
			return fmt.Errorf("fsync: lane %d has neither a graph nor an adversary", l)
		}
		m := r.Size()
		if m > 64 {
			return fmt.Errorf("fsync: lane %d ring size %d exceeds the 64-edge lane word", l, m)
		}
		if kl := len(lane.Placements); kl == 0 || kl >= m {
			return fmt.Errorf("fsync: lane %d places %d robots on %d nodes, want 1 <= k < n", l, kl, m)
		}
		sizes[l] = m
		k = max(k, len(lane.Placements))
		ls.addRing(m, uint64(1)<<uint(l))
	}
	n := ls.rings[len(ls.rings)-1].Size
	ls.r, ls.n, ls.k, ls.lanes = ring.New(n), n, k, lanes
	ls.tables = ls.tables[:0]
	ls.adv, ls.advLanes = cfg.Adversary, 0
	ls.metrics = cfg.Metrics
	ls.statRounds, ls.statLaneSteps, ls.statWordFast, ls.statLasso, ls.statSkipped = 0, 0, 0, 0, 0
	ls.lassoAt, ls.period, ls.skip = [64]int{}, [64]int{}, [64]int{}
	ls.t = 0
	ls.active = 0
	ls.horizons = resize(ls.horizons, lanes)
	ls.graphs = resize(ls.graphs, lanes)
	ls.chirCW = resize(ls.chirCW, k)
	ls.dirRight = resize(ls.dirRight, k)
	ls.moved = resize(ls.moved, k)
	ls.placed = resize(ls.placed, k)
	ls.sets = resize(ls.sets, lanes)
	ls.cols = resize(ls.cols, n)
	ls.pos = resize(ls.pos, k*n)
	ls.next = resize(ls.next, n)
	ls.mCW = resize(ls.mCW, n)
	ls.mCCW = resize(ls.mCCW, n)
	ls.occ = resize(ls.occ, n)
	for i := range ls.pos {
		ls.pos[i] = 0
	}
	for i := 0; i < k; i++ {
		ls.chirCW[i], ls.dirRight[i], ls.moved[i], ls.placed[i] = 0, 0, 0, 0
	}
	for l, lane := range cfg.Lanes {
		bit := uint64(1) << uint(l)
		if lane.Graph == nil {
			ls.advLanes |= bit
		}
		if lane.Horizon < 1 {
			return fmt.Errorf("fsync: lane %d has non-positive horizon %d", l, lane.Horizon)
		}
		if lane.Table.Name() == "" {
			return fmt.Errorf("fsync: lane %d has the zero rule table", l)
		}
		ls.addTable(lane.Table, bit)
		for i, p := range lane.Placements {
			if p.Node < 0 || p.Node >= sizes[l] {
				return fmt.Errorf("fsync: lane %d robot %d placed on invalid node %d", l, i, p.Node)
			}
			if !p.Chirality.Valid() {
				return fmt.Errorf("fsync: lane %d robot %d has invalid chirality %d", l, i, p.Chirality)
			}
			if p.Core != nil {
				return fmt.Errorf("fsync: lane %d robot %d carries a Core override (unsupported in lockstep)", l, i)
			}
			ls.pos[i*n+p.Node] |= bit
			ls.placed[i] |= bit
			if p.Chirality == robot.RightIsCW {
				ls.chirCW[i] |= bit
			}
		}
		// Towerless check: the same lane must not place two robots on one
		// node.
		for v := 0; v < sizes[l]; v++ {
			var seen uint64
			for i := range lane.Placements {
				if p := ls.pos[i*n+v] & bit; p != 0 {
					if seen != 0 {
						return fmt.Errorf("fsync: lane %d initial configuration has a tower on node %d (not towerless)", l, v)
					}
					seen = p
				}
			}
		}
		ls.horizons[l] = lane.Horizon
		ls.graphs[l] = lane.Graph
		ls.active |= bit
		if ls.sets[l].Size() != sizes[l] {
			ls.sets[l] = ring.NewEdgeSet(sizes[l])
		}
	}
	ls.seek, ls.savedAt, ls.advState = 0, 0, nil
	if cfg.Lasso && ls.advLanes != 0 {
		ls.seek, ls.advState = ls.advLanes, cfg.Adversary.State()
		ls.saved = resize(ls.saved, k*n+2*k+len(ls.advState))
	}
	ls.refreshOccupancy()
	return nil
}

// addRing adds the lane bit to the mask of the block's ring of size
// nodes, or inserts that ring in ascending order.
func (ls *LockstepSimulator) addRing(size int, bit uint64) {
	i := 0
	for i < len(ls.rings) && ls.rings[i].Size < size {
		i++
	}
	if i < len(ls.rings) && ls.rings[i].Size == size {
		ls.rings[i].Mask |= bit
		return
	}
	ls.rings = slices.Insert(ls.rings, i, LaneRing{size, bit})
}

// addTable adds the lane bit to the mask of the block's table that
// computes t's rule, or adds t as a new one.
func (ls *LockstepSimulator) addTable(t robot.Table, bit uint64) {
	for j := range ls.tables {
		if ls.tables[j].t.Same(t) {
			ls.tables[j].mask |= bit
			return
		}
	}
	ls.tables = append(ls.tables, laneTable{t, bit})
}

// lockstepPool backs AcquireLockstep/Release, mirroring the scalar
// simulator pool: campaigns run many seed blocks back to back and reuse
// the lane buffers across them.
var lockstepPool = sync.Pool{New: func() any { return new(LockstepSimulator) }}

// AcquireLockstep returns a pooled lockstep simulator configured with
// cfg. Pair it with Release when the run is done. A Reset that fails or
// panics still returns the simulator to the pool; a panic propagates.
func AcquireLockstep(cfg LockstepConfig) (*LockstepSimulator, error) {
	ls := lockstepPool.Get().(*LockstepSimulator)
	defer func() {
		if r := recover(); r != nil {
			lockstepPool.Put(ls)
			panic(r)
		}
	}()
	if err := ls.Reset(cfg); err != nil {
		lockstepPool.Put(ls)
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.LockstepAcquires.Inc()
	}
	return ls, nil
}

// Release returns the simulator to the pool. The caller must not use ls
// (or the Occupancy slice it handed out) afterwards.
func (ls *LockstepSimulator) Release() {
	if ls.metrics != nil {
		ls.metrics.LockstepReleases.Inc()
	}
	ls.flushMetrics()
	clear(ls.graphs)
	ls.adv, ls.advState = nil, nil
	lockstepPool.Put(ls)
}

// flushMetrics credits the run's accumulated step statistics to the
// wired Metrics and detaches them; idempotent via the cleared pointer.
func (ls *LockstepSimulator) flushMetrics() {
	if ls.metrics == nil {
		return
	}
	ls.metrics.LockstepRounds.Add(int64(ls.statRounds))
	ls.metrics.LockstepLaneRounds.Add(int64(ls.statLaneSteps))
	ls.metrics.WordFastLanes.Add(int64(ls.statWordFast))
	ls.metrics.WordFallbackLanes.Add(int64(ls.statLaneSteps - ls.statWordFast))
	ls.metrics.LassoLanes.Add(int64(ls.statLasso))
	ls.metrics.SkippedLaneRounds.Add(int64(ls.statSkipped))
	ls.metrics = nil
	ls.statRounds, ls.statLaneSteps, ls.statWordFast, ls.statLasso, ls.statSkipped = 0, 0, 0, 0, 0
}

// Ring returns the block's widest ring: Rows, Occupancy and the edge
// columns hold one word per node or edge of it.
func (ls *LockstepSimulator) Ring() ring.Ring { return ls.r }

// Rings returns the block's ring sizes in ascending order, each with the
// mask of its lanes; the last is Ring. A lane on a ring of m nodes only
// ever sets bits of nodes and edges 0..m-1. The slice is the simulator's,
// valid until the next Reset.
func (ls *LockstepSimulator) Rings() []LaneRing { return ls.rings }

// Now returns the current time instant.
func (ls *LockstepSimulator) Now() int { return ls.t }

// Lanes returns the number of configured lanes.
func (ls *LockstepSimulator) Lanes() int { return ls.lanes }

// Robots returns the widest lane's team size: the number of position rows.
func (ls *LockstepSimulator) Robots() int { return ls.k }

// Active returns the mask of lanes that have not yet retired.
func (ls *LockstepSimulator) Active() uint64 { return ls.active }

// Lasso reports what the block knows of lane l's lasso: at is the instant
// at which its state first repeated the state of instant at−period, both 0
// while no repeat has been seen or when the block does not look (a graph
// lane, or Lasso unset). From then on the lane runs to the first instant
// T >= at+period with T ≡ Horizon (mod period), or to its horizon if that
// comes first, and retires; skip is the rounds Horizon−T that cuts, a
// multiple of period. Every later instant repeats one of the last period
// instants before T, which by then also hold every revisit gap the cycle
// produces, so a tracker shifted by skip (spec.LaneVisits.Skip) reads as
// if the lane had run to its horizon.
func (ls *LockstepSimulator) Lasso(l int) (at, period, skip int) {
	return ls.lassoAt[l], ls.period[l], ls.skip[l]
}

// Done reports whether every lane has retired.
func (ls *LockstepSimulator) Done() bool { return ls.active == 0 }

// Occupancy returns the per-node any-robot occupancy words of the current
// instant: bit l of Occupancy()[v] is set iff some robot of lane l stands
// on node v. Bits of retired lanes are stale (frozen at their final
// configuration); mask with the lane masks the caller tracks. The slice
// is reused by the next Step/Reset.
func (ls *LockstepSimulator) Occupancy() []uint64 { return ls.occ }

// Rows returns the one-hot position rows of the current instant: bit l
// of Rows()[i*n+v] is set iff lane l's robot i stands on node v. The
// slice is read-only and rewritten in place by the next Step/Reset, so
// read it before Step for the pre-round configuration.
func (ls *LockstepSimulator) Rows() []uint64 { return ls.pos }

// PointsCW returns the lane word of robot i pointing clockwise: its global
// direction after the last Step's Compute phase (Move keeps it), or its
// initial direction before the first Step. Only the bits of active lanes
// that place a robot i carry meaning. Step may run Compute on retired
// lanes, so a retired lane's direction and memory words are meaningless
// after its horizon; bits of unconfigured lanes are meaningless too.
func (ls *LockstepSimulator) PointsCW(i int) uint64 { return ^(ls.chirCW[i] ^ ls.dirRight[i]) }

// Position returns lane l's robot i node at the current instant — the
// slow introspection path used by tests and debugging, not the engine.
// It panics when lane l places no robot i.
func (ls *LockstepSimulator) Position(i, l int) int {
	bit := uint64(1) << uint(l)
	for v := 0; v < ls.n; v++ {
		if ls.pos[i*ls.n+v]&bit != 0 {
			return v
		}
	}
	panic(fmt.Sprintf("fsync: lane %d robot %d has no position bit", l, i))
}

// refreshOccupancy recomputes the per-node any-occupancy words from the
// one-hot position matrix.
func (ls *LockstepSimulator) refreshOccupancy() {
	n := ls.n
	for v := 0; v < n; v++ {
		ls.occ[v] = 0
	}
	for i := 0; i < ls.k; i++ {
		row := ls.pos[i*n : (i+1)*n]
		for v := 0; v < n; v++ {
			ls.occ[v] |= row[v]
		}
	}
}

// Step runs one synchronous round on every active lane and returns the
// mask of lanes that executed it (the pre-step active mask): those lanes'
// configurations advanced from instant Now()-1 to Now(). Retired lanes
// keep their final configuration.
func (ls *LockstepSimulator) Step() uint64 {
	stepped := ls.active
	if stepped == 0 {
		return 0
	}
	n, k := ls.n, ls.k
	narrow := ls.rings[:len(ls.rings)-1] // the rings Step fixes up

	// Materialize E_t of every active lane as per-edge lane columns. The
	// per-lane EdgesInto calls are issued in increasing t order, exactly
	// like the scalar engine's, so stateful graphs see the same sequence.
	// The adversary reads the configuration before Compute, like the
	// scalar Dynamics; no per-lane Present runs for its lanes.
	wordFast := dyngraph.LaneColumns(ls.graphs, ls.sets, stepped&^ls.advLanes, ls.t, ls.cols)
	if a := stepped & ls.advLanes; a != 0 {
		ls.adv.EdgeColumns(ls, a, ls.cols)
		wordFast += bits.OnesCount64(a)
	}
	ls.statRounds++
	ls.statLaneSteps += bits.OnesCount64(stepped)
	ls.statWordFast += wordFast
	// A lane on a narrower ring of m nodes has no edge n-1: its bit there
	// is clear, so cols[n-1] can carry its node 0's counter-clockwise
	// edge, m-1, for Look and Move below.
	for _, g := range narrow {
		ls.cols[n-1] |= ls.cols[g.Size-1] & g.Mask
	}

	// Occupancy: mCW doubles as the "seen one robot" accumulator and mCCW
	// as the "seen two or more" (tower) word per node during this phase;
	// both are overwritten again by Move below.
	any, multi := ls.mCW, ls.mCCW
	for v := 0; v < n; v++ {
		any[v], multi[v] = 0, 0
	}
	for i := 0; i < k; i++ {
		row := ls.pos[i*n : (i+1)*n]
		for v := 0; v < n; v++ {
			p := row[v]
			multi[v] |= any[v] & p
			any[v] |= p
		}
	}

	// Look + Compute per robot: gather the three predicates as lane words
	// and run the circuit of every table some active lane placing the robot
	// runs, keeping each lane's outputs by mask. Pointing CW means the robot's
	// edge "towards dir" is its own node index and the opposite edge is the
	// counter-clockwise one (node-1), matching ring.EdgeTowards.
	for i := 0; i < k; i++ {
		row := ls.pos[i*n : (i+1)*n]
		var tower, ecw, eccw uint64
		prev := n - 1
		for v := 0; v < n; v++ {
			p := row[v]
			tower |= p & multi[v]
			ecw |= p & ls.cols[v]
			eccw |= p & ls.cols[prev]
			prev = v
		}
		pcw := ^(ls.chirCW[i] ^ ls.dirRight[i]) // XNOR: global dir is CW
		view := robot.LaneView{
			EdgeDir:     (pcw & ecw) | (^pcw & eccw),
			EdgeOpp:     (pcw & eccw) | (^pcw & ecw),
			OtherRobots: tower,
		}
		var flip, next uint64
		live := stepped & ls.placed[i]
		for j := range ls.tables {
			lt := &ls.tables[j]
			if lt.mask&live == 0 {
				continue
			}
			f, m := lt.t.Lanes(ls.moved[i], view)
			flip |= f & lt.mask
			next |= m & lt.mask
		}
		ls.dirRight[i] ^= flip
		ls.moved[i] = next
	}

	// Move per robot, with the post-Compute direction on the same E_t.
	// Lanes whose pointed edge is absent stay; columns of retired lanes
	// are zero, so retired positions never change.
	for i := 0; i < k; i++ {
		row := ls.pos[i*n : (i+1)*n]
		pcw := ^(ls.chirCW[i] ^ ls.dirRight[i])
		prev := n - 1
		for v := 0; v < n; v++ {
			p := row[v]
			ls.mCW[v] = p & pcw & ls.cols[v]
			ls.mCCW[v] = p & ^pcw & ls.cols[prev]
			prev = v
		}
		prev = n - 1
		for v := 0; v < n; v++ {
			nxt := v + 1
			if nxt == n {
				nxt = 0
			}
			ls.next[v] = (row[v] &^ (ls.mCW[v] | ls.mCCW[v])) | ls.mCW[prev] | ls.mCCW[nxt]
			prev = v
		}
		// On a narrower ring of m nodes the loop above lands a clockwise
		// move from node m-1 on node m and a counter-clockwise move from
		// node 0 on node n-1, neither of which the lane has: they belong on
		// node 0 and node m-1.
		for _, g := range narrow {
			m := g.Size
			cw, ccw := ls.mCW[m-1]&g.Mask, ls.mCCW[0]&g.Mask
			ls.next[m] &^= g.Mask
			ls.next[n-1] &^= g.Mask
			ls.next[0] |= cw
			ls.next[m-1] |= ccw
		}
		copy(row, ls.next)
	}

	ls.refreshOccupancy()
	ls.t++
	// Retire lanes that reached their horizon or their lasso retirement.
	for w := stepped; w != 0; w &= w - 1 {
		l := bits.TrailingZeros64(w)
		if ls.horizons[l] == ls.t {
			ls.active &^= 1 << uint(l)
			if ls.skip[l] > 0 {
				ls.statLasso++
				ls.statSkipped += ls.skip[l]
			}
		}
	}
	if ls.seek != 0 {
		ls.lasso()
	}
	return stepped
}

// lasso runs one round of Brent's cycle detection on the adversary lanes
// still seeking: it compares their state now with the state saved at
// savedAt, schedules the early retirement of the lanes that repeat it, and
// saves the state again when t is a power of two. A lane's state is its
// position rows, its placed robots' direction and memory bits, and the
// adversary's state words.
func (ls *LockstepSimulator) lasso() {
	seek := ls.seek & ls.active
	if seek == 0 {
		ls.seek = 0
		return
	}
	k, rows := ls.k, len(ls.pos)
	saved := ls.saved
	if ls.savedAt > 0 {
		var diff uint64
		for i, w := range ls.pos {
			diff |= w ^ saved[i]
		}
		for i := 0; i < k; i++ {
			diff |= ((ls.dirRight[i] ^ saved[rows+i]) | (ls.moved[i] ^ saved[rows+k+i])) & ls.placed[i]
		}
		for i, w := range ls.advState {
			diff |= w ^ saved[rows+2*k+i]
		}
		for w := seek &^ diff; w != 0; w &= w - 1 {
			ls.repeat(bits.TrailingZeros64(w))
		}
		seek &= diff
	}
	ls.seek = seek
	if seek != 0 && ls.t&(ls.t-1) == 0 {
		copy(saved, ls.pos)
		copy(saved[rows:], ls.dirRight)
		copy(saved[rows+k:], ls.moved)
		copy(saved[rows+2*k:], ls.advState)
		ls.savedAt = ls.t
	}
}

// repeat records that lane l's state at t repeats the saved one and moves
// its retirement to the first T >= t+period with T ≡ horizon (mod period),
// when that comes before the horizon.
func (ls *LockstepSimulator) repeat(l int) {
	p, h := ls.t-ls.savedAt, ls.horizons[l]
	ls.lassoAt[l], ls.period[l] = ls.t, p
	if end := ls.t + p; end < h {
		end += (h - end) % p
		ls.horizons[l], ls.skip[l] = end, h-end
	}
}
