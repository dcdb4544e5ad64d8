// Package core implements the paper's primary contribution: the three
// perpetual-exploration algorithms for fully synchronous robots on
// connected-over-time rings.
//
//   - PEF_3+ (Algorithm 1, Section 3): k >= 3 robots, any ring of n > k
//     nodes.
//   - PEF_2 (Section 4.2): 2 robots on the 3-node ring.
//   - PEF_1 (Section 5.2): 1 robot on the 2-node ring.
//
// The package also provides the two single-rule ablations of PEF_3+ used by
// experiment E-X3 to demonstrate why Rules 2 and 3 are both necessary.
// Each algorithm is a robot.Table built from its rule as written in the
// paper, so the scalar and the lockstep engine run the same table.
package core

import (
	"pef/internal/robot"
)

// PEF3PlusName is the registry name of Algorithm 1.
const PEF3PlusName = "pef3+"

// PEF3Plus is Algorithm 1 of the paper (Perpetual Exploration in FSYNC with
// 3 or more robots). Its entire behaviour is three rules:
//
//	Rule 1: a robot that is not involved in a tower keeps its direction.
//	Rule 2: a robot that did not move in the previous step and is now in a
//	        tower keeps its direction (the sentinel keeps its post).
//	Rule 3: a robot that moved in the previous step and is now in a tower
//	        turns back (the explorer bounces off the sentinel).
//
// The persistent variables are dir and HasMovedPreviousStep, the table's
// memory bit. Line 4 of Algorithm 1 (HasMovedPreviousStep ←
// ExistsEdge(dir)) reads the edge towards the *possibly updated* dir: it
// predicts whether the Move phase of this very round crosses an edge,
// which is exactly "has moved" when the next Look runs.
var PEF3Plus = robot.NewTable(PEF3PlusName, func(moved bool, v robot.View) (bool, bool) {
	if moved && v.OtherRobots { // Rule 3
		return true, v.EdgeOpp
	}
	return false, v.EdgeDir // Rules 1 and 2
})

// NoRule3Name is the registry name of the ablation that removes Rule 3.
const NoRule3Name = "pef3+/no-rule3"

// NoRule3 is PEF_3+ with Rule 3 removed: robots never turn back, towers or
// not (pure Rule 1). Lemma 3.1's argument shows why this fails: with an
// eventual missing edge every robot eventually parks at an extremity and
// the far side of the ring is never visited again (experiment E-X3).
var NoRule3 = robot.NewTable(NoRule3Name, func(bool, robot.View) (bool, bool) {
	return false, false
})

// NoRule2Name is the registry name of the ablation that removes Rule 2.
const NoRule2Name = "pef3+/no-rule2"

// NoRule2 is PEF_3+ with Rule 2 inverted: every robot involved in a tower
// turns back, whether or not it moved in the previous step. Sentinels
// abandon their post at the eventual missing edge on every meeting, so the
// sentinel/explorer role separation of Lemma 3.7 is destroyed (E-X3 shows
// the consequences empirically).
var NoRule2 = robot.NewTable(NoRule2Name, func(_ bool, v robot.View) (bool, bool) {
	return v.OtherRobots, false
})
