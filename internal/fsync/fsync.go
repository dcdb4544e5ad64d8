// Package fsync implements the fully synchronous execution model of
// Section 2.3 of the paper: an execution is the infinite sequence
// (G_0, γ_0), (G_1, γ_1), ... where γ_{t+1} results from all robots
// synchronously and atomically performing one Look–Compute–Move cycle on
// the snapshot G_t.
//
// The simulator supports both oblivious dynamics (pure functions of time,
// package dynamics) and adaptive adversaries (functions of the current
// robot positions, package adversary) through the Dynamics interface, and
// records everything needed by the checkers: positions, global directions,
// robot states, tower events, and the realized evolving graph.
//
// The round engine is allocation-free and copy-free in steady state:
// Before/After snapshots are double-buffered per simulator and handed to
// Dynamics and observers by pointer, presence sets are written in place
// (Dynamics.EdgesAtInto: dyngraph.EdgesInto for oblivious graphs and the
// adaptive adversaries of package adversary alike), occupancy uses a
// count slice instead of a map, and simulators themselves are pooled via
// Acquire/Release so million-scenario campaigns reuse backing slices
// across jobs. A round writes its result once: Before is refilled by
// copying the previous round's After, and Step writes each robot's new
// global direction, state, position and moved flag straight into After,
// which is also where the next round reads them. The price of the reuse
// is a retention contract: the *RoundEvent that Step returns
// and delivers, both *Snapshot buffers it points at, and its Edges set
// are owned by the simulator and valid only until the next Step on it —
// observers that keep data call Clone.
package fsync

import (
	"fmt"
	"sync"

	"pef/internal/dyngraph"
	"pef/internal/ring"
	"pef/internal/robot"
)

// Snapshot is the externally observable part of a configuration at the
// start of a round: where the robots are, which global direction each one
// points to, and each robot's persistent state. Adaptive adversaries
// receive it (the proofs' adversaries only use positions — they wait for
// robots to move — but checkers use all of it).
type Snapshot struct {
	// T is the time instant of the configuration.
	T int
	// Positions[i] is the node of robot i.
	Positions []int
	// GlobalDirs[i] is the global direction robot i currently points to.
	GlobalDirs []ring.Direction
	// States[i] is robot i's compact persistent state (robot.Core.State).
	// Render with String at the trace/report boundary only.
	States []robot.StateCode
	// MovedPrev[i] reports whether robot i moved during the previous round
	// (as observed by the scheduler, not by the robot).
	MovedPrev []bool
}

// cloneSlice deep-copies a slice preserving nil-vs-empty: a nil input
// stays nil, an empty non-nil input stays empty non-nil.
func cloneSlice[T any](s []T) []T {
	if s == nil {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// Clone returns a deep copy of the snapshot. Nil and empty slices are
// preserved as such, so cloned snapshots compare like their originals.
func (s Snapshot) Clone() Snapshot {
	return Snapshot{
		T:          s.T,
		Positions:  cloneSlice(s.Positions),
		GlobalDirs: cloneSlice(s.GlobalDirs),
		States:     cloneSlice(s.States),
		MovedPrev:  cloneSlice(s.MovedPrev),
	}
}

// copyFrom overwrites s in place with src, both sized by resize to the
// same team. It is the engine's double-buffer refill; the public
// retention-safe path stays Clone.
func (s *Snapshot) copyFrom(src *Snapshot) {
	s.T = src.T
	copy(s.Positions, src.Positions)
	copy(s.GlobalDirs, src.GlobalDirs)
	copy(s.States, src.States)
	copy(s.MovedPrev, src.MovedPrev)
}

// resize sizes every per-robot slice to k, reusing backing arrays.
func (s *Snapshot) resize(k int) {
	s.Positions = resize(s.Positions, k)
	s.GlobalDirs = resize(s.GlobalDirs, k)
	s.States = resize(s.States, k)
	s.MovedPrev = resize(s.MovedPrev, k)
}

// occScratch pools occupancy count slices, shared by Snapshot.Towers and
// any other positional aggregation that runs outside a simulator (the
// engine itself keeps a per-simulator slice instead).
var occScratch = sync.Pool{New: func() any { return new([]int) }}

// occupancyCounts tallies the robots per node into counts, growing it to
// cover at least max+1 nodes, and returns the slice. Counts beyond the
// touched nodes are zero; callers must re-zero the touched entries before
// returning a pooled slice (countsReset).
func occupancyCounts(positions []int, counts []int) []int {
	max := -1
	for _, p := range positions {
		if p > max {
			max = p
		}
	}
	if cap(counts) < max+1 {
		counts = make([]int, max+1)
	}
	counts = counts[:max+1]
	for _, p := range positions {
		counts[p]++
	}
	return counts
}

// countsReset re-zeroes exactly the entries touched by positions.
func countsReset(counts []int, positions []int) {
	for _, p := range positions {
		counts[p] = 0
	}
}

// Towers returns the nodes occupied by more than one robot, with the robot
// indices at each, in increasing node order — the order is deterministic
// by construction (an ascending scan over the occupancy counts), not by a
// post-hoc sort.
func (s Snapshot) Towers() []Tower {
	scratch := occScratch.Get().(*[]int)
	counts := occupancyCounts(s.Positions, *scratch)
	var towers []Tower
	for node, c := range counts {
		if c <= 1 {
			continue
		}
		robots := make([]int, 0, c)
		for i, p := range s.Positions {
			if p == node {
				robots = append(robots, i)
			}
		}
		towers = append(towers, Tower{Node: node, Robots: robots})
	}
	countsReset(counts, s.Positions)
	*scratch = counts
	occScratch.Put(scratch)
	return towers
}

// Tower is a multiplicity point: more than one robot on one node
// (Section 2.2).
type Tower struct {
	Node   int
	Robots []int
}

// Dynamics decides the presence set E_t of each round. Oblivious dynamics
// ignore the snapshot; adaptive adversaries use it.
type Dynamics interface {
	// Ring returns the underlying ring.
	Ring() ring.Ring
	// EdgesAtInto overwrites dst with E_t given the configuration at the
	// start of round t. dst always arrives sized to the ring's edge count;
	// snap is the simulator's Before buffer and must not be retained.
	EdgesAtInto(t int, snap *Snapshot, dst *ring.EdgeSet)
}

// Oblivious adapts a position-independent evolving graph to Dynamics.
type Oblivious struct {
	G dyngraph.EvolvingGraph
}

// Ring implements Dynamics.
func (o Oblivious) Ring() ring.Ring { return o.G.Ring() }

// EdgesAtInto implements Dynamics.
func (o Oblivious) EdgesAtInto(t int, _ *Snapshot, dst *ring.EdgeSet) {
	dyngraph.EdgesInto(o.G, t, dst)
}

// Placement is the initial condition of one robot.
type Placement struct {
	// Node is the robot's initial node.
	Node int
	// Chirality maps the robot's local directions to global ones.
	Chirality robot.Chirality
	// Core optionally overrides the algorithm-provided initial state —
	// used by the self-stabilization probe (E-X6) to start from arbitrary
	// states. Nil means Algorithm.NewCore().
	Core robot.Core
}

// Config assembles a simulation.
type Config struct {
	// Algorithm is the uniform algorithm every robot runs.
	Algorithm robot.Algorithm
	// Dynamics supplies E_t each round.
	Dynamics Dynamics
	// Placements give the initial configuration γ_0.
	Placements []Placement
	// AllowTowers permits initial configurations that are not towerless
	// (the paper's well-initiated executions are towerless; only the
	// self-stabilization probe sets this).
	AllowTowers bool
	// AllowFull permits k >= n configurations (rejected by default, as the
	// paper requires k < n).
	AllowFull bool
	// Observers are notified after every round.
	Observers []Observer
	// RecordGraph, when true, captures the realized evolving graph into a
	// dyngraph.Recorded retrievable via Simulator.RecordedGraph — needed
	// when Dynamics is adaptive and the analyses want to replay it.
	RecordGraph bool
	// Metrics, when non-nil, receives engine counters (rounds simulated,
	// pool traffic). Recording is flushed once per run at Release/Reset —
	// never inside Step — so enabling it cannot perturb the hot path or
	// any output byte.
	Metrics *Metrics
	// Lasso retires the run once its joint state repeats, when Dynamics
	// is a LassoKeyer: Run then stops at the instant Simulator.Lasso
	// reports, from which Horizon lies whole periods ahead. Observers see
	// only the rounds executed, so the graph RecordGraph keeps is cut
	// there too.
	Lasso bool
	// Horizon is the instant the run is meant to reach; only Lasso reads
	// it. A Lasso run with Horizon 0 finds its lasso (Simulator.Lasso)
	// but never retires, for callers that need every round.
	Horizon int
}

// Observer receives one event per completed round.
type Observer interface {
	// ObserveRound is called after round t completed, with the presence
	// set used, the configuration before the round (time t) and after it
	// (time t+1). The event and everything it points at belong to the
	// simulator and are overwritten by the next Step: clone whatever must
	// outlive the round.
	ObserveRound(ev *RoundEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev *RoundEvent)

// ObserveRound implements Observer.
func (f ObserverFunc) ObserveRound(ev *RoundEvent) { f(ev) }

// RoundEvent describes one completed round. Step returns (and observers
// receive) the simulator's own event: it, both snapshots it points at and
// the presence set are per-simulator buffers valid until the next Step;
// retaining observers must Clone.
type RoundEvent struct {
	// T is the round index: the transition from time T to time T+1.
	T int
	// Edges is the presence set E_T the round ran on.
	Edges ring.EdgeSet
	// Before is the configuration at time T (after its Look, i.e. the
	// pre-round snapshot the adversary saw).
	Before *Snapshot
	// After is the configuration at time T+1.
	After *Snapshot
	// Moved[i] reports whether robot i crossed an edge this round; it is
	// After.MovedPrev.
	Moved []bool
	// Flipped[i] reports whether robot i changed its pointed global
	// direction during this round's Compute.
	Flipped []bool
}

// simRobot is what the snapshots do not hold of a robot: its position,
// global direction, state and moved flag live in After between rounds.
type simRobot struct {
	core robot.Core
	chir robot.Chirality
}

// Simulator executes rounds. Create with New (or Acquire, which reuses a
// pooled simulator), then call Step or Run.
type Simulator struct {
	r         ring.Ring
	dyn       Dynamics
	robots    []simRobot
	t         int
	observers []Observer
	recorded  *dyngraph.Recorded
	metrics   *Metrics

	// Steady-state scratch: reused by every Step, sized once per Reset.
	before  Snapshot
	after   Snapshot
	ev      RoundEvent   // the event Step returns, built at Reset
	edges   ring.EdgeSet // presence-set buffer Dynamics writes E_t into
	views   []robot.View
	flipped []bool
	occ     []int // occupancy counts indexed by node
	lz      lasso // Config.Lasso's cycle detector
}

// New validates the configuration and builds a simulator positioned at
// time 0.
func New(cfg Config) (*Simulator, error) {
	s := &Simulator{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reconfigures the simulator in place for a fresh run at time 0,
// reusing its backing slices where shapes allow. It validates cfg exactly
// like New; on error the simulator is left unusable until the next
// successful Reset.
func (s *Simulator) Reset(cfg Config) error {
	s.flushMetrics() // a direct re-Reset still credits the finished run
	if cfg.Algorithm == nil {
		return fmt.Errorf("fsync: nil algorithm")
	}
	if cfg.Dynamics == nil {
		return fmt.Errorf("fsync: nil dynamics")
	}
	r := cfg.Dynamics.Ring()
	k := len(cfg.Placements)
	if k == 0 {
		return fmt.Errorf("fsync: no robots placed")
	}
	if !cfg.AllowFull && k >= r.Size() {
		return fmt.Errorf("fsync: %d robots on %d nodes violates k < n", k, r.Size())
	}
	s.r = r
	s.dyn = cfg.Dynamics
	s.metrics = cfg.Metrics
	s.t = 0
	s.robots = resize(s.robots, k)
	s.before.resize(k)
	s.after.resize(k)
	s.after.T = 0
	s.occ = resize(s.occ, r.Size())
	for i := range s.occ {
		s.occ[i] = 0
	}
	for i, p := range cfg.Placements {
		if !r.ValidNode(p.Node) {
			return fmt.Errorf("fsync: robot %d placed on invalid node %d", i, p.Node)
		}
		if !p.Chirality.Valid() {
			return fmt.Errorf("fsync: robot %d has invalid chirality %d", i, p.Chirality)
		}
		// occ doubles as the duplicate-placement detector; it is re-zeroed
		// at the top of every Reset, so error returns may leave it dirty.
		if s.occ[p.Node] > 0 && !cfg.AllowTowers {
			return fmt.Errorf("fsync: initial configuration has a tower on node %d (not towerless)", p.Node)
		}
		s.occ[p.Node]++
		core := p.Core
		if core == nil {
			core = cfg.Algorithm.NewCore()
		}
		s.robots[i] = simRobot{core: core, chir: p.Chirality}
		s.after.Positions[i] = p.Node
		s.after.GlobalDirs[i] = globalDir(p.Chirality, core.Dir())
		s.after.States[i] = core.State()
		s.after.MovedPrev[i] = false
	}
	for _, p := range cfg.Placements {
		s.occ[p.Node] = 0
	}
	s.observers = append(s.observers[:0], cfg.Observers...)
	s.recorded = nil
	if cfg.RecordGraph {
		s.recorded = dyngraph.NewRecorded(r.Size())
	}
	if s.edges.Size() != r.Edges() {
		s.edges = ring.NewEdgeSet(r.Edges())
	}
	s.views = resize(s.views, k)
	s.flipped = resize(s.flipped, k)
	s.lz.reset(cfg, r.Size(), k)
	s.ev = RoundEvent{Before: &s.before, After: &s.after, Moved: s.after.MovedPrev, Flipped: s.flipped}
	return nil
}

// resize returns a slice of length n, reusing s's backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// simPool backs Acquire/Release: batch sweeps and scenario campaigns run
// millions of (experiment × seed) jobs, and reusing simulators across them
// keeps the per-job cost at a Reset instead of a full reallocation.
var simPool = sync.Pool{New: func() any { return new(Simulator) }}

// Acquire returns a pooled simulator configured with cfg. It is New with
// recycled backing slices; pair it with Release when the run is done.
func Acquire(cfg Config) (*Simulator, error) {
	s := simPool.Get().(*Simulator)
	if err := s.Reset(cfg); err != nil {
		simPool.Put(s)
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Acquires.Inc()
	}
	return s, nil
}

// Release returns the simulator to the pool. The caller must not use s (or
// any un-cloned RoundEvent data it produced) afterwards. Reference-typed
// fields that could pin large object graphs are dropped here; the scratch
// slices are the point of the pool and stay.
func (s *Simulator) Release() {
	if s.metrics != nil {
		s.metrics.Releases.Inc()
	}
	s.flushMetrics()
	s.dyn, s.lz.keyer = nil, nil
	s.recorded = nil
	clear(s.observers) // drop observer references, not just the length
	s.observers = s.observers[:0]
	for i := range s.robots {
		s.robots[i].core = nil
	}
	simPool.Put(s)
}

// flushMetrics credits the finished run's round count to the wired
// Metrics and detaches them. Called from Release and from the top of
// Reset (a direct re-Reset without Release still accounts its run);
// idempotent because the metrics pointer is cleared on first flush.
func (s *Simulator) flushMetrics() {
	if s.metrics == nil {
		return
	}
	s.metrics.Rounds.Add(int64(s.t))
	if s.Retired() {
		s.metrics.LassoRuns.Inc()
		s.metrics.SkippedRounds.Add(int64(s.lz.skip))
	}
	s.metrics = nil
}

// Ring returns the underlying ring.
func (s *Simulator) Ring() ring.Ring { return s.r }

// Now returns the current time instant.
func (s *Simulator) Now() int { return s.t }

// Robots returns the number of robots.
func (s *Simulator) Robots() int { return len(s.robots) }

// Snapshot returns the externally observable configuration at the current
// instant. The returned snapshot is freshly allocated and safe to retain.
func (s *Simulator) Snapshot() Snapshot { return s.after.Clone() }

// globalDir converts a robot's local pointed direction to the external
// observer's global direction.
func globalDir(c robot.Chirality, d robot.LocalDir) ring.Direction {
	if c.GlobalSign(d) > 0 {
		return ring.CW
	}
	return ring.CCW
}

// RecordedGraph returns the realized evolving graph when Config.RecordGraph
// was set, and nil otherwise.
func (s *Simulator) RecordedGraph() *dyngraph.Recorded { return s.recorded }

// Step runs one synchronous round and returns its event: the simulator's
// own buffer, overwritten (with both snapshots it points at) by the next
// Step.
func (s *Simulator) Step() *RoundEvent {
	// Only Step changes the configuration, and it leaves it in s.after.
	b, a := &s.before, &s.after
	b.copyFrom(a)
	s.dyn.EdgesAtInto(s.t, b, &s.edges)
	edges := s.edges
	if edges.Size() != s.r.Edges() {
		panic(fmt.Sprintf("fsync: dynamics produced edge set of size %d for ring with %d edges", edges.Size(), s.r.Edges()))
	}
	if s.recorded != nil {
		s.recorded.Append(edges)
	}

	for _, v := range b.Positions {
		s.occ[v]++
	}

	// Look: gather each robot's view on E_t.
	for i, v := range b.Positions {
		d := b.GlobalDirs[i]
		s.views[i] = robot.View{
			EdgeDir:     edges.Contains(s.r.EdgeTowards(v, d)),
			EdgeOpp:     edges.Contains(s.r.EdgeTowards(v, d.Opposite())),
			OtherRobots: s.occ[v] > 1,
		}
	}
	for _, v := range b.Positions {
		s.occ[v] = 0
	}

	// Compute: all robots atomically.
	for i := range s.robots {
		rb := &s.robots[i]
		rb.core.Compute(s.views[i])
		d := rb.core.Dir()
		if !d.Valid() {
			panic(fmt.Sprintf("fsync: robot %d computed invalid direction", i))
		}
		g := globalDir(rb.chir, d)
		s.flipped[i] = g != b.GlobalDirs[i]
		a.GlobalDirs[i] = g
	}

	// Move: all robots atomically, on the same snapshot E_t.
	for i, v := range b.Positions {
		d := a.GlobalDirs[i]
		moved := edges.Contains(s.r.EdgeTowards(v, d))
		if moved {
			v = s.r.Next(v, d)
		}
		a.Positions[i] = v
		a.MovedPrev[i] = moved
		a.States[i] = s.robots[i].core.State()
	}

	s.t++
	a.T = s.t
	s.ev.T, s.ev.Edges = b.T, edges
	for _, ob := range s.observers {
		ob.ObserveRound(&s.ev)
	}
	if s.lz.keyer != nil {
		s.lz.step(a, s.occ)
	}
	return &s.ev
}

// Run executes rounds until the given horizon (exclusive), or until the
// run retires at its lasso (Retired). Callers that want the final
// configuration call Snapshot afterwards.
func (s *Simulator) Run(horizon int) {
	for s.t < horizon && !s.Retired() {
		s.Step()
	}
}

// AddObserver attaches an observer mid-run (it starts receiving events from
// the next round).
func (s *Simulator) AddObserver(ob Observer) {
	s.observers = append(s.observers, ob)
}
