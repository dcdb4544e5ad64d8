// Package ssync implements a semi-synchronous (SSYNC) scheduler and the
// edge-removal adversary of Di Luna et al. (ICDCS 2016) that the paper
// invokes in its related-work section to justify restricting the study to
// FSYNC: in SSYNC, an adversary that both picks which robots are activated
// and which edges are present can prevent any exploration algorithm from
// ever moving a robot, independent of all other assumptions.
//
// In SSYNC, at each instant an arbitrary non-empty subset of robots is
// activated; each activated robot performs a full atomic Look–Compute–Move
// cycle on the instant's snapshot; the others do nothing (they do not even
// observe). Fairness requires every robot to be activated infinitely often.
package ssync

import (
	"fmt"

	"pef/internal/ring"
	"pef/internal/robot"
)

// Activation decides which robots run their cycle at instant t. At least
// one robot must be activated whenever the scheduler is consulted with a
// non-empty system (fairness across time is the scheduler's contract;
// RoundRobin trivially satisfies it).
type Activation interface {
	// Active returns the activated robot indices at instant t, given the
	// current positions.
	Active(t int, positions []int) []int
}

// RoundRobin activates exactly one robot per instant, cycling through
// indices — the canonical fair SSYNC schedule.
type RoundRobin struct {
	// K is the number of robots.
	K int
}

// Active implements Activation.
func (rr RoundRobin) Active(t int, _ []int) []int {
	if rr.K <= 0 {
		return nil
	}
	return []int{t % rr.K}
}

// Dynamics decides the presence set per instant, knowing which robots are
// activated (the SSYNC adversary of [10] needs exactly this power).
type Dynamics interface {
	Ring() ring.Ring
	// EdgesAt returns E_t given positions and the activated set.
	EdgesAt(t int, positions []int, active []int) ring.EdgeSet
}

// Config assembles an SSYNC simulation.
type Config struct {
	Algorithm  robot.Algorithm
	Dynamics   Dynamics
	Activation Activation
	// Placements holds initial node and chirality per robot.
	Nodes       []int
	Chiralities []robot.Chirality
}

// Simulator executes SSYNC rounds.
type Simulator struct {
	r     ring.Ring
	dyn   Dynamics
	act   Activation
	cores []robot.Core
	chirs []robot.Chirality
	nodes []int
	t     int
	moves int
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Algorithm == nil || cfg.Dynamics == nil || cfg.Activation == nil {
		return nil, fmt.Errorf("ssync: missing algorithm, dynamics or activation")
	}
	if len(cfg.Nodes) == 0 || len(cfg.Nodes) != len(cfg.Chiralities) {
		return nil, fmt.Errorf("ssync: %d nodes vs %d chiralities", len(cfg.Nodes), len(cfg.Chiralities))
	}
	r := cfg.Dynamics.Ring()
	s := &Simulator{
		r:     r,
		dyn:   cfg.Dynamics,
		act:   cfg.Activation,
		cores: make([]robot.Core, len(cfg.Nodes)),
		chirs: append([]robot.Chirality(nil), cfg.Chiralities...),
		nodes: append([]int(nil), cfg.Nodes...),
	}
	for i, n := range cfg.Nodes {
		if !r.ValidNode(n) {
			return nil, fmt.Errorf("ssync: robot %d on invalid node %d", i, n)
		}
		if !cfg.Chiralities[i].Valid() {
			return nil, fmt.Errorf("ssync: robot %d has invalid chirality", i)
		}
		s.cores[i] = cfg.Algorithm.NewCore()
	}
	return s, nil
}

// Positions returns a copy of the robots' current nodes.
func (s *Simulator) Positions() []int { return append([]int(nil), s.nodes...) }

// Now returns the current instant.
func (s *Simulator) Now() int { return s.t }

// Moves returns the total number of edge traversals performed so far.
func (s *Simulator) Moves() int { return s.moves }

// Step executes one SSYNC instant: the activation set runs atomic
// Look–Compute–Move cycles on this instant's snapshot.
func (s *Simulator) Step() {
	active := s.act.Active(s.t, s.Positions())
	edges := s.dyn.EdgesAt(s.t, s.Positions(), active)

	occupancy := make(map[int]int, len(s.nodes))
	for _, n := range s.nodes {
		occupancy[n]++
	}

	isActive := make([]bool, len(s.nodes))
	for _, i := range active {
		isActive[i] = true
	}

	// Look for all activated robots on the same snapshot, then Compute,
	// then Move — atomic per activation but synchronous within the subset
	// (the adversary below only ever activates one robot, so the subtlety
	// is moot for E-X4; for general schedules this matches FSYNC semantics
	// restricted to the active subset).
	views := make([]robot.View, len(s.nodes))
	for i := range s.nodes {
		if !isActive[i] {
			continue
		}
		pointed := s.globalDir(i)
		views[i] = robot.View{
			EdgeDir:     edges.Contains(s.r.EdgeTowards(s.nodes[i], pointed)),
			EdgeOpp:     edges.Contains(s.r.EdgeTowards(s.nodes[i], pointed.Opposite())),
			OtherRobots: occupancy[s.nodes[i]] > 1,
		}
	}
	for i := range s.nodes {
		if isActive[i] {
			s.cores[i].Compute(views[i])
		}
	}
	for i := range s.nodes {
		if !isActive[i] {
			continue
		}
		pointed := s.globalDir(i)
		if edges.Contains(s.r.EdgeTowards(s.nodes[i], pointed)) {
			s.nodes[i] = s.r.Next(s.nodes[i], pointed)
			s.moves++
		}
	}
	s.t++
}

func (s *Simulator) globalDir(i int) ring.Direction {
	if s.chirs[i].GlobalSign(s.cores[i].Dir()) > 0 {
		return ring.CW
	}
	return ring.CCW
}

// Run executes instants until the horizon.
func (s *Simulator) Run(horizon int) {
	for s.t < horizon {
		s.Step()
	}
}

// FreezeAdversary is the [10]-style SSYNC adversary: whenever a robot is
// activated, both adjacent edges of its node are removed; all other edges
// are present. Combined with any fair one-at-a-time activation schedule:
//
//   - no robot ever moves (its cycle always sees no usable edge), and
//   - every edge is present at every instant in which no activated robot
//     sits next to it, hence (with k < n robots that never move) every
//     edge is present infinitely often: the realized evolving graph is
//     connected-over-time.
//
// Exploration therefore fails on a legal connected-over-time ring for any
// algorithm — the impossibility that forces the paper into FSYNC.
type FreezeAdversary struct {
	r ring.Ring
}

// NewFreezeAdversary builds the adversary for an n-node ring.
func NewFreezeAdversary(n int) *FreezeAdversary {
	return &FreezeAdversary{r: ring.New(n)}
}

// Ring implements Dynamics.
func (f *FreezeAdversary) Ring() ring.Ring { return f.r }

// EdgesAt implements Dynamics.
func (f *FreezeAdversary) EdgesAt(_ int, positions []int, active []int) ring.EdgeSet {
	edges := ring.FullEdgeSet(f.r.Edges())
	for _, i := range active {
		edges.Remove(f.r.EdgeTowards(positions[i], ring.CW))
		edges.Remove(f.r.EdgeTowards(positions[i], ring.CCW))
	}
	return edges
}

// ObliviousFull is the all-edges-present SSYNC dynamics, used as a control.
type ObliviousFull struct {
	R ring.Ring
}

// Ring implements Dynamics.
func (o ObliviousFull) Ring() ring.Ring { return o.R }

// EdgesAt implements Dynamics.
func (o ObliviousFull) EdgesAt(_ int, _ []int, _ []int) ring.EdgeSet {
	return ring.FullEdgeSet(o.R.Edges())
}
