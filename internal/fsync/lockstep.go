package fsync

import (
	"fmt"
	"math/bits"
	"sync"

	"pef/internal/dyngraph"
	"pef/internal/ring"
	"pef/internal/robot"
)

// This file implements the lockstep engine: one simulator instance that
// advances up to 64 seed lanes of the same scenario shape bit-parallel.
// Robot positions are kept one-hot — pos[r][v] is a lane word whose bit l
// says "lane l's robot r stands on node v" — and the whole
// Look–Compute–Move cycle becomes a fixed boolean circuit over such
// words: every lane advances exactly as it would under the scalar
// Simulator (same per-lane edge schedules, same placements, same
// algorithm rules), so lane l of a lockstep run is bit-identical to the
// corresponding scalar run. The differential tests in lockstep_test.go
// pin that equivalence round by round.
//
// The engine supports oblivious dynamics only (per-lane evolving graphs):
// adaptive adversaries read robot positions and stay on the scalar path.

// LaneRun describes one seed lane of a lockstep run.
type LaneRun struct {
	// Graph is the lane's edge schedule. All lanes must share one ring
	// size, which may be at most 64 (one presence word per instant).
	Graph dyngraph.EvolvingGraph
	// Placements give the lane's initial configuration; every lane must
	// place the same number of robots. The usual Config rules apply:
	// towerless, valid nodes and chiralities, k < n. Per-robot Core
	// overrides are not supported (lane cores come from the algorithm).
	Placements []Placement
	// Horizon is the number of rounds to execute for this lane (>= 1).
	// Lanes retire individually once their horizon is reached.
	Horizon int
}

// LockstepConfig assembles a lockstep simulation.
type LockstepConfig struct {
	// Algorithm is the uniform algorithm every robot of every lane runs.
	// It must provide a bit-parallel core.
	Algorithm robot.LaneAlgorithm
	// Lanes holds 1 to 64 seed lanes.
	Lanes []LaneRun
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
	r      ring.Ring
	n, k   int
	lanes  int
	t      int
	active uint64 // lanes with t < horizon

	horizons []int
	cores    []robot.LaneCore         // per robot, shared across lanes
	chirCW   []uint64                 // per robot: bit l = lane l is right-is-CW
	graphs   []dyngraph.EvolvingGraph // per lane

	// Run-local telemetry accumulators: plain ints bumped by Step and
	// flushed to metrics once per run (Release or re-Reset).
	metrics       *Metrics
	statRounds    int // word steps executed
	statLaneSteps int // active lanes summed over steps
	statWordFast  int // lane-instants served by a family kernel (InPlaceGraph)

	// Steady-state scratch, sized once per Reset.
	sets []ring.EdgeSet // per lane materialization buffer
	cols []uint64       // per edge: lane presence column
	pos  []uint64       // k*n one-hot positions, pos[r*n+v]
	next []uint64       // per node move scratch
	mCW  []uint64       // per node move scratch
	mCCW []uint64       // per node move scratch
	occ  []uint64       // per node: any-robot occupancy at the current instant
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
	if cfg.Algorithm == nil {
		return fmt.Errorf("fsync: nil lockstep algorithm")
	}
	lanes := len(cfg.Lanes)
	if lanes == 0 || lanes > 64 {
		return fmt.Errorf("fsync: %d lanes outside [1,64]", lanes)
	}
	r := cfg.Lanes[0].Graph.Ring()
	n := r.Size()
	if n > 64 {
		return fmt.Errorf("fsync: ring size %d exceeds the 64-edge lane word", n)
	}
	k := len(cfg.Lanes[0].Placements)
	if k == 0 {
		return fmt.Errorf("fsync: no robots placed")
	}
	if k >= n {
		return fmt.Errorf("fsync: %d robots on %d nodes violates k < n", k, n)
	}
	ls.r, ls.n, ls.k, ls.lanes = r, n, k, lanes
	ls.metrics = cfg.Metrics
	ls.statRounds, ls.statLaneSteps, ls.statWordFast = 0, 0, 0
	ls.t = 0
	ls.active = 0
	ls.horizons = resize(ls.horizons, lanes)
	ls.graphs = resize(ls.graphs, lanes)
	ls.chirCW = resize(ls.chirCW, k)
	ls.cores = resize(ls.cores, k)
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
		ls.chirCW[i] = 0
		ls.cores[i] = cfg.Algorithm.NewLaneCore()
	}
	for l, lane := range cfg.Lanes {
		if lane.Graph.Ring() != r {
			return fmt.Errorf("fsync: lane %d ring %v disagrees with lane 0 ring %v", l, lane.Graph.Ring(), r)
		}
		if len(lane.Placements) != k {
			return fmt.Errorf("fsync: lane %d places %d robots, lane 0 places %d", l, len(lane.Placements), k)
		}
		if lane.Horizon < 1 {
			return fmt.Errorf("fsync: lane %d has non-positive horizon %d", l, lane.Horizon)
		}
		bit := uint64(1) << uint(l)
		for i, p := range lane.Placements {
			if !r.ValidNode(p.Node) {
				return fmt.Errorf("fsync: lane %d robot %d placed on invalid node %d", l, i, p.Node)
			}
			if !p.Chirality.Valid() {
				return fmt.Errorf("fsync: lane %d robot %d has invalid chirality %d", l, i, p.Chirality)
			}
			if p.Core != nil {
				return fmt.Errorf("fsync: lane %d robot %d carries a Core override (unsupported in lockstep)", l, i)
			}
			ls.pos[i*n+p.Node] |= bit
			if p.Chirality == robot.RightIsCW {
				ls.chirCW[i] |= bit
			}
		}
		// Towerless check: the same lane must not place two robots on one
		// node.
		for v := 0; v < n; v++ {
			var seen uint64
			for i := 0; i < k; i++ {
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
		if ls.sets[l].Size() != n {
			ls.sets[l] = ring.NewEdgeSet(n)
		}
	}
	ls.refreshOccupancy()
	return nil
}

// lockstepPool backs AcquireLockstep/Release, mirroring the scalar
// simulator pool: campaigns run many seed blocks back to back and reuse
// the lane buffers across them.
var lockstepPool = sync.Pool{New: func() any { return new(LockstepSimulator) }}

// AcquireLockstep returns a pooled lockstep simulator configured with
// cfg. Pair it with Release when the run is done.
func AcquireLockstep(cfg LockstepConfig) (*LockstepSimulator, error) {
	ls := lockstepPool.Get().(*LockstepSimulator)
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
	for l := range ls.graphs {
		ls.graphs[l] = nil
	}
	for r := range ls.cores {
		ls.cores[r] = nil
	}
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
	ls.metrics = nil
	ls.statRounds, ls.statLaneSteps, ls.statWordFast = 0, 0, 0
}

// Ring returns the underlying ring.
func (ls *LockstepSimulator) Ring() ring.Ring { return ls.r }

// Now returns the current time instant.
func (ls *LockstepSimulator) Now() int { return ls.t }

// Lanes returns the number of configured lanes.
func (ls *LockstepSimulator) Lanes() int { return ls.lanes }

// Robots returns the number of robots per lane.
func (ls *LockstepSimulator) Robots() int { return ls.k }

// Active returns the mask of lanes that have not yet reached their
// horizon.
func (ls *LockstepSimulator) Active() uint64 { return ls.active }

// Done reports whether every lane has reached its horizon.
func (ls *LockstepSimulator) Done() bool { return ls.active == 0 }

// Occupancy returns the per-node any-robot occupancy words of the current
// instant: bit l of Occupancy()[v] is set iff some robot of lane l stands
// on node v. Bits of retired lanes are stale (frozen at their final
// configuration); mask with the lane masks the caller tracks. The slice
// is reused by the next Step/Reset.
func (ls *LockstepSimulator) Occupancy() []uint64 { return ls.occ }

// Position returns lane l's robot i node at the current instant — the
// slow introspection path used by tests and debugging, not the engine.
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

	// Materialize E_t of every active lane as per-edge lane columns. The
	// per-lane EdgesInto calls are issued in increasing t order, exactly
	// like the scalar engine's, so stateful graphs see the same sequence.
	wordFast := dyngraph.LaneColumns(ls.graphs, ls.sets, stepped, ls.t, ls.cols)
	ls.statRounds++
	ls.statLaneSteps += bits.OnesCount64(stepped)
	ls.statWordFast += wordFast

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
	// and run the algorithm circuit. Pointing CW means the robot's edge
	// "towards dir" is its own node index and the opposite edge is the
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
		core := ls.cores[i]
		pcw := ^(ls.chirCW[i] ^ core.DirRight()) // XNOR: global dir is CW
		core.Compute(robot.LaneView{
			EdgeDir:     (pcw & ecw) | (^pcw & eccw),
			EdgeOpp:     (pcw & eccw) | (^pcw & ecw),
			OtherRobots: tower,
		})
	}

	// Move per robot, with the post-Compute direction on the same E_t.
	// Lanes whose pointed edge is absent stay; columns of retired lanes
	// are zero, so retired positions never change.
	for i := 0; i < k; i++ {
		row := ls.pos[i*n : (i+1)*n]
		pcw := ^(ls.chirCW[i] ^ ls.cores[i].DirRight())
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
		copy(row, ls.next)
	}

	ls.refreshOccupancy()
	ls.t++
	// Retire lanes that reached their horizon.
	for w := stepped; w != 0; w &= w - 1 {
		l := bits.TrailingZeros64(w)
		if ls.horizons[l] == ls.t {
			ls.active &^= 1 << uint(l)
		}
	}
	return stepped
}
