// Package robot models the autonomous mobile robots of Section 2.2 of the
// paper: uniform, anonymous, silent, endowed with persistent memory, local
// weak multiplicity detection, and an individual stable chirality. Robots
// operate in fully synchronous Look–Compute–Move cycles (package fsync runs
// the cycles; this package defines what a robot is).
package robot

import "fmt"

// LocalDir is the value of a robot's dir variable: one of the two port
// labels (left, right) the robot assigns to its current node. The labels
// are private to the robot; two robots need not agree (no common sense of
// direction). Signed values make Opposite a negation, which keeps the
// chirality composition below branch-free.
type LocalDir int8

const (
	// Left is the initial value of every robot's dir variable (Section 2.2).
	Left LocalDir = -1
	// Right is the other port label.
	Right LocalDir = 1
)

// Opposite returns the other local direction (the paper's overline-dir).
func (d LocalDir) Opposite() LocalDir { return -d }

// Valid reports whether d is Left or Right.
func (d LocalDir) Valid() bool { return d == Left || d == Right }

// String implements fmt.Stringer.
func (d LocalDir) String() string {
	switch d {
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("LocalDir(%d)", int8(d))
	}
}

// Chirality fixes how a robot's local labels map onto the external
// observer's global directions. It is stable over the ring and over time,
// but two robots may have opposite chirality (Section 2.2).
type Chirality int8

const (
	// RightIsCW maps local right to global clockwise.
	RightIsCW Chirality = 1
	// RightIsCCW maps local right to global counter-clockwise.
	RightIsCCW Chirality = -1
)

// Valid reports whether c is one of the two chirality values.
func (c Chirality) Valid() bool { return c == RightIsCW || c == RightIsCCW }

// Opposite returns the mirror chirality.
func (c Chirality) Opposite() Chirality { return -c }

// String implements fmt.Stringer.
func (c Chirality) String() string {
	switch c {
	case RightIsCW:
		return "right=CW"
	case RightIsCCW:
		return "right=CCW"
	default:
		return fmt.Sprintf("Chirality(%d)", int8(c))
	}
}

// GlobalSign returns the sign (+1 for CW, -1 for CCW) of the global
// direction that local direction d denotes under chirality c. The caller
// (the simulator) converts the sign to a ring.Direction; robots themselves
// never see global directions.
func (c Chirality) GlobalSign(d LocalDir) int {
	return int(c) * int(d)
}

// View is the local environment gathered during the Look phase
// (Section 2.3): the values of the three predicates a robot can evaluate.
// It deliberately contains nothing else — no node identity, no global
// direction, no count of co-located robots (weak multiplicity detection).
type View struct {
	// EdgeDir is ExistsEdge(dir): an edge is present at the port the robot
	// currently points to.
	EdgeDir bool
	// EdgeOpp is ExistsEdge(opposite dir): an edge is present at the other
	// port.
	EdgeOpp bool
	// OtherRobots is ExistsOtherRobotsOnCurrentNode(): at least one other
	// robot shares the node.
	OtherRobots bool
}

// ExistsEdge returns the predicate value for local direction d relative to
// the robot's pointed direction: the robot asks about "dir" or "opposite of
// dir", never about absolute ports.
func (v View) ExistsEdge(pointed, d LocalDir) bool {
	if d == pointed {
		return v.EdgeDir
	}
	return v.EdgeOpp
}

// StateKind selects the rendering schema of a StateCode: which persistent
// variables the code carries and how String lays them out. Each algorithm
// family picks the kind matching its variable set, so codes from different
// families never compare equal by accident.
type StateKind uint8

const (
	// StateDir encodes algorithms whose only persistent variable is dir.
	StateDir StateKind = iota
	// StateDirMoved adds the HasMovedPreviousStep flag (PEF_3+).
	StateDirMoved
	// StateSweep adds a done/sweep counter pair packed into Aux
	// (pendulum, doubling zigzag).
	StateSweep
	// StateLCG adds a full 64-bit generator register in Aux (lcg-walker).
	StateLCG
)

// StateCode is a compact, comparable encoding of a robot core's persistent
// variables — the engine-level replacement for string state encodings on
// the simulation hot path. Two robots are "in the same state" (Lemma 4.1)
// iff their StateCodes are equal (plain ==); rendering to the classic
// string form happens lazily via String at the trace/report boundary only.
// Encodings must be purely local: they may mention left/right but never
// clockwise/counter-clockwise.
type StateCode struct {
	// Kind is the rendering schema.
	Kind StateKind
	// Dir is the dir variable, present in every algorithm.
	Dir LocalDir
	// Flag carries the kind's boolean variable (moved for StateDirMoved).
	Flag bool
	// Aux carries the kind's numeric payload (packed counters, LCG state).
	Aux uint64
}

// DirState encodes a dir-only core.
func DirState(d LocalDir) StateCode { return StateCode{Kind: StateDir, Dir: d} }

// DirMovedState encodes a (dir, HasMovedPreviousStep) core.
func DirMovedState(d LocalDir, moved bool) StateCode {
	return StateCode{Kind: StateDirMoved, Dir: d, Flag: moved}
}

// SweepState encodes a (dir, done, sweep) core; both counters must fit in
// 32 bits (the doubling zigzag caps its sweep well below that).
func SweepState(d LocalDir, done, sweep int) StateCode {
	return StateCode{Kind: StateSweep, Dir: d, Aux: uint64(uint32(done)) | uint64(uint32(sweep))<<32}
}

// LCGState encodes a (dir, generator register) core.
func LCGState(d LocalDir, state uint64) StateCode {
	return StateCode{Kind: StateLCG, Dir: d, Aux: state}
}

// String renders the code in the classic persistent-variable form
// ("dir=left,moved=true"). It allocates, so the engine never calls it; the
// trace and report layers do.
func (c StateCode) String() string {
	switch c.Kind {
	case StateDirMoved:
		return fmt.Sprintf("dir=%s,moved=%t", c.Dir, c.Flag)
	case StateSweep:
		return fmt.Sprintf("dir=%s,done=%d/%d", c.Dir, uint32(c.Aux), uint32(c.Aux>>32))
	case StateLCG:
		return fmt.Sprintf("dir=%s,lcg=%d", c.Dir, c.Aux)
	default:
		return "dir=" + c.Dir.String()
	}
}

// Core is one robot's deterministic state machine: the persistent variables
// of Section 2.2 plus the Compute rule. Implementations must be
// deterministic — the computability results quantify over deterministic
// algorithms only.
type Core interface {
	// Dir returns the current value of the dir variable. The simulator
	// reads it during Look (to evaluate ExistsEdge(dir)) and again after
	// Compute (to perform Move).
	Dir() LocalDir
	// Compute executes the Compute phase on the view gathered during Look,
	// possibly modifying the robot's persistent variables (including dir).
	Compute(view View)
	// State returns the compact encoding of all persistent variables. Two
	// robots are "in the same state" (Lemma 4.1) iff their codes are equal.
	// State must not allocate: the simulator calls it every round.
	State() StateCode
}

// Algorithm is a uniform deterministic algorithm: a factory producing one
// fresh Core per robot, all identical (robots are uniform and anonymous).
type Algorithm interface {
	// Name identifies the algorithm in reports and registries.
	Name() string
	// NewCore returns a Core in the algorithm's initial state
	// (dir = Left, all other variables at their initial values).
	NewCore() Core
}
