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
var PEF2 = robot.NewTable(PEF2Name, func(_ bool, v robot.View) (bool, bool) {
	// The robot already points to the edge when EdgeDir is the present one.
	return !v.OtherRobots && v.EdgeOpp && !v.EdgeDir, false
})

// PEF1Name is the registry name of the single-robot, two-node algorithm.
const PEF1Name = "pef1"

// PEF1 is the algorithm of Section 5.2: perpetual exploration of the 2-node
// connected-over-time ring by a single robot. As soon as at least one
// adjacent edge is present, dir points to one of them (deterministically:
// the current direction if its edge is present, the other one otherwise).
// On a 2-node ring every traversal swaps nodes, so moving whenever possible
// is perpetual exploration; connected-over-time guarantees motion happens
// infinitely often.
var PEF1 = robot.NewTable(PEF1Name, func(_ bool, v robot.View) (bool, bool) {
	return !v.EdgeDir && v.EdgeOpp, false
})
