package core

import (
	"pef/internal/robot"
)

// PEF2Name is the registry name of the two-robot, three-node algorithm.
const PEF2Name = "pef2"

// PEF2 is the algorithm of Section 4.2: perpetual exploration of the 3-node
// connected-over-time ring by 2 robots. Each robot has only its dir
// variable. The rule: an isolated robot with exactly one adjacent edge
// present points to that edge; in every other situation (no edge, both
// edges, or a co-located robot) it keeps its direction.
type PEF2 struct{}

// Name implements robot.Algorithm.
func (PEF2) Name() string { return PEF2Name }

// NewCore implements robot.Algorithm.
func (PEF2) NewCore() robot.Core { return &pef2Core{dir: robot.Left} }

type pef2Core struct {
	dir robot.LocalDir
}

func (c *pef2Core) Dir() robot.LocalDir { return c.dir }

func (c *pef2Core) Compute(view robot.View) {
	if view.OtherRobots {
		return
	}
	// Exactly one adjacent edge present: point to it. The robot already
	// points to it when EdgeDir is the present one.
	if view.EdgeOpp && !view.EdgeDir {
		c.dir = c.dir.Opposite()
	}
}

func (c *pef2Core) State() robot.StateCode { return robot.DirState(c.dir) }

var _ robot.Algorithm = PEF2{}

// PEF1Name is the registry name of the single-robot, two-node algorithm.
const PEF1Name = "pef1"

// PEF1 is the algorithm of Section 5.2: perpetual exploration of the 2-node
// connected-over-time ring by a single robot. As soon as at least one
// adjacent edge is present, dir points to one of them (deterministically:
// the current direction if its edge is present, the other one otherwise).
// On a 2-node ring every traversal swaps nodes, so moving whenever possible
// is perpetual exploration; connected-over-time guarantees motion happens
// infinitely often.
type PEF1 struct{}

// Name implements robot.Algorithm.
func (PEF1) Name() string { return PEF1Name }

// NewCore implements robot.Algorithm.
func (PEF1) NewCore() robot.Core { return &pef1Core{dir: robot.Left} }

type pef1Core struct {
	dir robot.LocalDir
}

func (c *pef1Core) Dir() robot.LocalDir { return c.dir }

func (c *pef1Core) Compute(view robot.View) {
	if !view.EdgeDir && view.EdgeOpp {
		c.dir = c.dir.Opposite()
	}
}

func (c *pef1Core) State() robot.StateCode { return robot.DirState(c.dir) }

var _ robot.Algorithm = PEF1{}
