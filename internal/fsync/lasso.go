package fsync

import (
	"slices"

	"pef/internal/ring"
	"pef/internal/robot"
)

// This file gives the scalar Simulator the lasso retirement the lockstep
// engine has (see LockstepSimulator.Lasso). A run against a deterministic,
// finite-state dynamics is itself finite-state: the positions, global
// directions and core states of the robots together with the dynamics'
// state decide every later round, since a Core's StateCode encodes all of
// its persistent variables. So once that joint state repeats, the run is
// periodic, and the rounds up to the horizon add nothing new.

// LassoKeyer is implemented by deterministic dynamics whose presence sets
// follow from the configuration and a finite state they carry between
// rounds, never from the instant t itself. Only such dynamics let a
// Config.Lasso run retire early; any other dynamics runs every round.
type LassoKeyer interface {
	// AppendLassoKey appends the state the dynamics carries into the
	// next round to dst and returns the extended slice. With the
	// configuration it must decide every later E_t, and its length must
	// not change during a run. A dynamics whose E_t depends on the
	// configuration alone appends nothing.
	AppendLassoKey(dst []int) []int
}

// lasso is the scalar Brent detector: the joint state saved at savedAt
// (t = 1, 2, 4, …), what was found, and the per-node occupancy of one
// period of the cycle, counted after the detection.
type lasso struct {
	keyer   LassoKeyer // nil: no lasso work this run
	horizon int        // Config.Horizon
	seek    bool       // no repeat seen yet
	savedAt int        // 0: none saved yet
	pos     []int
	dirs    []ring.Direction
	states  []robot.StateCode
	saved   []int // the dynamics' key at savedAt
	key     []int // the dynamics' key now, read when the robots repeat

	at, period, skip int
	cycle            []int // per node: instants of one period it is occupied
	cycleEnd         int   // the last instant cycle counts
}

// reset arms the detector for a run of cfg on an n-node ring, or turns it
// off when cfg does not ask for it or its dynamics has no key.
func (lz *lasso) reset(cfg Config, n, k int) {
	keyer, _ := cfg.Dynamics.(LassoKeyer)
	if !cfg.Lasso {
		keyer = nil
	}
	*lz = lasso{keyer: keyer, horizon: cfg.Horizon, seek: keyer != nil,
		pos: lz.pos, dirs: lz.dirs, states: lz.states, saved: lz.saved[:0], key: lz.key[:0], cycle: lz.cycle}
	if keyer == nil {
		return
	}
	lz.pos = resize(lz.pos, k)
	lz.dirs = resize(lz.dirs, k)
	lz.states = resize(lz.states, k)
	lz.cycle = resize(lz.cycle, n)
}

// step runs after the round that reached instant a.T: it counts a's
// occupancy into one period of a found cycle, or compares the joint state
// with the saved one, schedules the retirement on a repeat, and saves the
// state again when a.T is a power of two. occ is the simulator's
// all-zero occupancy scratch, used here to count each node once.
func (lz *lasso) step(a *Snapshot, occ []int) {
	t := a.T
	if !lz.seek {
		if t <= lz.cycleEnd {
			for _, v := range a.Positions {
				if occ[v] == 0 {
					lz.cycle[v]++
				}
				occ[v]++
			}
			for _, v := range a.Positions {
				occ[v] = 0
			}
		}
		return
	}
	if lz.savedAt > 0 && lz.sameRobots(a) {
		lz.key = lz.keyer.AppendLassoKey(lz.key[:0])
		if slices.Equal(lz.key, lz.saved) {
			lz.seek = false
			lz.repeat(t)
			return
		}
	}
	if t&(t-1) == 0 {
		copy(lz.pos, a.Positions)
		copy(lz.dirs, a.GlobalDirs)
		copy(lz.states, a.States)
		lz.saved = lz.keyer.AppendLassoKey(lz.saved[:0])
		lz.savedAt = t
	}
}

// sameRobots reports whether the robots of a stand where they stood at
// savedAt, pointing the same way in the same core states; only then is
// the dynamics' key worth comparing.
func (lz *lasso) sameRobots(a *Snapshot) bool {
	for i, v := range a.Positions {
		if v != lz.pos[i] || a.GlobalDirs[i] != lz.dirs[i] || a.States[i] != lz.states[i] {
			return false
		}
	}
	return true
}

// repeat records that the state at t repeats the saved one and, when the
// horizon lies more than a period ahead, schedules the retirement at the
// first T >= t+period with T ≡ horizon (mod period), the rule of
// LockstepSimulator.repeat. The next period's occupancy is counted into
// cycle.
func (lz *lasso) repeat(t int) {
	p, h := t-lz.savedAt, lz.horizon
	lz.at, lz.period = t, p
	if end := t + p; end < h {
		end += (h - end) % p
		lz.skip = h - end
	}
	clear(lz.cycle)
	lz.cycleEnd = t + p
}

// Lasso reports what the run knows of its lasso, as LockstepSimulator.Lasso
// does for a lane: at is the instant at which the joint state first
// repeated the state of instant at−period, both 0 while no repeat has been
// seen or when the run does not look (Config.Lasso unset, or a dynamics
// that is no LassoKeyer). From then on Run stops at the first instant
// T >= at+period with T ≡ Config.Horizon (mod period), when that comes
// before the horizon; skip is the rounds Horizon−T that cuts, a multiple
// of period, and 0 when nothing is cut.
func (s *Simulator) Lasso() (at, period, skip int) {
	return s.lz.at, s.lz.period, s.lz.skip
}

// Retired reports whether the run stands at the instant its lasso retires
// it, Config.Horizon − skip: every later instant up to the horizon repeats
// one of the last period instants, and a visit tracker shifted by skip
// (spec.VisitTracker.Skip) reads as if the run had reached its horizon.
func (s *Simulator) Retired() bool {
	return s.lz.skip > 0 && s.t == s.lz.horizon-s.lz.skip
}

// CycleVisits returns, per node, the number of instants of one period of
// the cycle at which some robot stands on it, once the run has stepped a
// whole period past its detection instant (so always when Retired). The
// slice is the simulator's and valid until the next Reset or Release; it
// is nil while no repeat has been seen.
func (s *Simulator) CycleVisits() []int {
	if s.lz.period == 0 {
		return nil
	}
	return s.lz.cycle
}
