package adversary

import (
	"fmt"
	"math/bits"
	"slices"

	"pef/internal/fsync"
	"pef/internal/ring"
)

// LaneForm reports whether Lanes can drive a run under d on an n-node ring:
// a fresh BlockPointed, or a confinement adversary built the way the
// scenario registry builds it (u = 0, watching robot 0, or robots 0 and 1)
// in its starting state, which is its lasso key: confine-two in phase 0,
// and confine-one always, since it carries no state between rounds. Any
// other instance keeps its scalar form.
func LaneForm(d fsync.Dynamics, n int) bool {
	switch d := d.(type) {
	case *BlockPointed:
		return len(d.runs.prev) == 0 && d.r.Size() == n
	case *OneRobotConfinement:
		return d.u == 0 && d.robot == 0 && d.r.Size() == n
	case *TwoRobotConfinement:
		return d.u == 0 && d.r1 == 0 && d.r2 == 1 && d.phase == 0 && d.r.Size() == n
	}
	return false
}

// Lanes is the lane form (fsync.LaneAdversary) of the adversaries that
// LaneForm admits, for all the adversary lanes of a lockstep block: each
// lane runs a BlockPointed with its own budget, a OneRobotConfinement or a
// TwoRobotConfinement. The state is bit-sliced: run[e*planes+p] and
// budget[p] hold bit p of every block-pointed lane's counter of edge e and
// budget, and phase[p] bit p of every confine-two lane's phase (confine-one
// needs no state beyond positions), so a round costs a few word operations
// per edge and plane, whatever the lanes. The counters and the phase are
// one slice, the State a lockstep block compares to find a lane's lasso. A
// Lanes value keeps its planes from block to block.
type Lanes struct {
	r            ring.Ring
	pointed      uint64 // block-pointed lanes
	one, two     uint64 // confine-one and confine-two lanes
	planes       int
	budget       [64]uint64
	state        []uint64 // run, then phase
	run          []uint64 // per edge and plane
	phase        []uint64 // 2 planes
	pointedEdges []uint64 // per edge scratch
}

// Reset starts a block on an n-node ring, each adversary in the state a
// fresh instance starts from: lane l runs dyns[l], which LaneForm must
// admit, and nil marks a lane it does not drive (a graph lane).
func (b *Lanes) Reset(n int, dyns []fsync.Dynamics) {
	b.r, b.pointed, b.one, b.two = ring.New(n), 0, 0, 0
	b.budget, b.planes = [64]uint64{}, 0
	for l, d := range dyns {
		bit := uint64(1) << uint(l)
		switch d := d.(type) {
		case *BlockPointed:
			b.pointed |= bit
			w := bits.Len(uint(d.runs.budget))
			b.planes = max(b.planes, w)
			for p := range w {
				b.budget[p] |= uint64(d.runs.budget>>p&1) << uint(l)
			}
		case *OneRobotConfinement:
			b.one |= bit
		case *TwoRobotConfinement:
			b.two |= bit
		}
	}
	words := n*b.planes + 2
	b.state = slices.Grow(b.state[:0], words)[:words]
	clear(b.state)
	b.run, b.phase = b.state[:n*b.planes], b.state[n*b.planes:]
	b.pointedEdges = slices.Grow(b.pointedEdges[:0], n)[:n]
}

// Ring implements fsync.LaneAdversary.
func (b *Lanes) Ring() ring.Ring { return b.r }

// State implements fsync.LaneAdversary: the counter planes, then the two
// phase planes.
func (b *Lanes) State() []uint64 { return b.state }

// EdgeColumns implements fsync.LaneAdversary.
func (b *Lanes) EdgeColumns(ls *fsync.LockstepSimulator, mask uint64, cols []uint64) {
	if m := mask & b.pointed; m != 0 {
		b.blockPointed(ls, m, cols)
	}
	if m := mask & (b.one | b.two); m != 0 {
		b.confine(ls.Rows(), m&b.one, m&b.two, cols)
	}
}

// blockPointed runs BlockPointed on the lanes of mask: a pointed edge is
// removed while its counter is below the budget; the counter then counts
// one more round if the edge was removed and restarts at zero if it is
// present.
func (b *Lanes) blockPointed(ls *fsync.LockstepSimulator, mask uint64, cols []uint64) {
	n, planes, rows, pointed := b.r.Size(), b.planes, ls.Rows(), b.pointedEdges
	clear(pointed)
	// Pointing CW from node v is pointing at edge v; CCW, at edge v-1.
	for i := 0; i < ls.Robots(); i++ {
		cw, prev := ls.PointsCW(i), n-1
		for v, p := range rows[i*n : (i+1)*n] {
			pointed[v] |= p & cw
			pointed[prev] |= p &^ cw
			prev = v
		}
	}
	for e, pt := range pointed {
		run := b.run[e*planes : (e+1)*planes]
		var less uint64 // run < budget, decided from the top plane down
		eq := ^uint64(0)
		for p := planes - 1; p >= 0; p-- {
			less |= eq & b.budget[p] &^ run[p]
			eq &^= b.budget[p] ^ run[p]
		}
		removed := pt & less & mask
		cols[e] |= mask &^ removed
		carry := removed // masked increment; lanes outside mask keep theirs
		for p, r := range run {
			run[p] = (r^carry)&removed | r&^mask
			carry &= r
		}
	}
}

// confine runs the confinement adversaries from the pre-round rows: one
// holds the confine-one lanes and two the confine-two lanes. Each removes
// the edges of its current phase and leaves the rest present; a victim
// outside its nodes panics, as the scalar adversaries do.
func (b *Lanes) confine(rows []uint64, one, two uint64, cols []uint64) {
	n := b.r.Size()
	for e := range cols {
		cols[e] |= one | two
	}
	if one != 0 {
		// Theorem 5.1 with u = 0 and v = n-1: remove e_ur = edge 0 while
		// the victim is on u and e_vl = edge n-2 while it is on v.
		atU, atV := rows[0]&one, rows[n-1]&one
		if out := one &^ (atU | atV); out != 0 {
			panic(fmt.Sprintf("adversary: confine-one victims of lanes %#x escaped {0, %d}", out, n-1))
		}
		cols[0] &^= atU
		cols[n-2] &^= atV
	}
	if two != 0 {
		// Theorem 4.1 with (u, v, w) = (0, 1, 2), r1 = robot 0 and r2 =
		// robot 1. A lane whose watched robot reached its target enters
		// the next phase; phase 0 waits for r2 on w, 1 for r1 on v, 2 for
		// r1 on u and 3 for r2 on v.
		r1, r2 := rows[:n], rows[n:2*n]
		lo, hi := b.phase[0], b.phase[1]
		done := two & (^hi&^lo&r2[2] | ^hi&lo&r1[1] | hi&^lo&r1[0] | hi&lo&r2[1])
		hi ^= done & lo
		lo ^= done
		b.phase[0], b.phase[1] = lo, hi
		if out := two &^ ((r1[0] | r1[1] | r1[2]) & (r2[0] | r2[1] | r2[2])); out != 0 {
			panic(fmt.Sprintf("adversary: confine-two robots of lanes %#x escaped {0, 1, 2}", out))
		}
		// e_ul = edge n-1 is removed in phases 0, 1 and 3; e_ur = e_vl =
		// edge 0 in 0 and 3; e_wl = edge 1 in 1 and 2; e_wr = edge 2 in 1,
		// 2 and 3.
		cols[n-1] &^= two &^ (hi &^ lo)
		cols[0] &^= two &^ (lo ^ hi)
		cols[1] &^= two & (lo ^ hi)
		cols[2] &^= two & (lo | hi)
	}
}
