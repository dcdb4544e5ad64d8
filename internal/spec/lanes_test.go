package spec

import (
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/ring"
	"pef/internal/robot"
)

// TestLaneVisitsMatchesScalarTrackers drives LaneVisits and the scalar
// VisitTracker/ConfinementTracker with identical random position streams
// (staggered per-lane horizons included) and requires identical reports —
// including the ExploreViolation strings the oracle ultimately consumes.
func TestLaneVisitsMatchesScalarTrackers(t *testing.T) {
	src := prng.NewSource(0xA11CE)
	lv := NewLaneVisits()
	for trial := 0; trial < 40; trial++ {
		n := 2 + src.Intn(14)
		k := 1 + src.Intn(3)
		lanes := 1 + src.Intn(64)
		baseRounds := 1 + src.Intn(40)

		pos := make([][]int, lanes)
		vts := make([]*VisitTracker, lanes)
		cts := make([]*ConfinementTracker, lanes)
		rounds := make([]int, lanes)
		maxRounds := 0
		for l := range pos {
			pos[l] = make([]int, k)
			for i := range pos[l] {
				pos[l][i] = src.Intn(n)
			}
			vts[l] = NewVisitTracker(n)
			cts[l] = NewConfinementTracker()
			rounds[l] = baseRounds + l%3
			if rounds[l] > maxRounds {
				maxRounds = rounds[l]
			}
		}

		lv.Reset(n)
		occ := make([]uint64, n)
		buildOcc := func(mask uint64) {
			for v := range occ {
				occ[v] = 0
			}
			for l := range pos {
				if mask&(1<<uint(l)) == 0 {
					continue
				}
				for _, v := range pos[l] {
					occ[v] |= 1 << uint(l)
				}
			}
		}
		allMask := uint64(1)<<uint(lanes) - 1
		if lanes == 64 {
			allMask = ^uint64(0)
		}
		buildOcc(allMask)
		lv.Record(0, occ, allMask)

		for instant := 1; instant <= maxRounds; instant++ {
			var mask uint64
			for l := range pos {
				if rounds[l] < instant {
					continue
				}
				mask |= 1 << uint(l)
				prev := append([]int(nil), pos[l]...)
				for i := range pos[l] {
					pos[l][i] = (pos[l][i] + src.Intn(3) - 1 + n) % n
				}
				ev := &fsync.RoundEvent{
					Before: &fsync.Snapshot{T: instant - 1, Positions: prev},
					After:  &fsync.Snapshot{T: instant, Positions: append([]int(nil), pos[l]...)},
				}
				vts[l].ObserveRound(ev)
				cts[l].ObserveRound(ev)
			}
			buildOcc(mask)
			lv.Record(instant, occ, mask)
		}

		for l := range pos {
			want := vts[l].Report()
			got := lv.Report(l, rounds[l]+1)
			if got.Nodes != want.Nodes || got.Horizon != want.Horizon ||
				got.Covered != want.Covered || got.CoverTime != want.CoverTime ||
				got.MaxGap != want.MaxGap || got.WorstNode != want.WorstNode {
				t.Fatalf("trial %d lane %d (n=%d k=%d rounds=%d):\nlane   %+v\nscalar %+v",
					trial, l, n, k, rounds[l], got, want)
			}
			for _, bound := range []int{0, want.MaxGap, want.Horizon} {
				if g, w := got.ExploreViolation(2, bound), want.ExploreViolation(2, bound); g != w {
					t.Fatalf("trial %d lane %d bound %d: lane violation %q, scalar %q", trial, l, bound, g, w)
				}
			}
			if g, w := lv.Distinct(l), cts[l].Distinct(); g != w {
				t.Fatalf("trial %d lane %d: lane distinct %d, confinement tracker %d", trial, l, g, w)
			}
			if g, w := lv.Distinct(l), want.Covered; g != w {
				t.Fatalf("trial %d lane %d: distinct %d != covered %d", trial, l, g, w)
			}
		}
	}
}

// TestLaneVisitsRecordAllocFree pins the per-round tracker cost: recording
// an instant must not allocate.
func TestLaneVisitsRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 12
	lv := NewLaneVisits()
	lv.Reset(n)
	occ := make([]uint64, n)
	for v := range occ {
		occ[v] = 0xDEADBEEFCAFE1234 >> uint(v%8)
	}
	instant := 0
	if allocs := testing.AllocsPerRun(200, func() {
		lv.Record(instant, occ, ^uint64(0))
		instant++
	}); allocs != 0 {
		t.Fatalf("LaneVisits.Record allocates %.1f times per instant, want 0", allocs)
	}
}

// lateCycle is a lane adversary on the 3-ring whose run enters its cycle
// exactly at a lasso save: edges stay absent while its phase counter runs
// 0–3, then all present through phases 4, 5, 6, 4, … A one-robot walker
// thus waits on its start node until t = 4 and then tours the ring with
// period 3, first reaching its other two nodes at t = 5 and 6. The phase
// is kept as three planes, every lane in the same phase.
type lateCycle struct {
	phase  int
	planes [3]uint64
}

func (a *lateCycle) Ring() ring.Ring { return ring.New(3) }
func (a *lateCycle) State() []uint64 { return a.planes[:] }
func (a *lateCycle) EdgeColumns(_ *fsync.LockstepSimulator, mask uint64, cols []uint64) {
	if a.phase >= 4 {
		for e := range cols {
			cols[e] |= mask
		}
	}
	if a.phase++; a.phase == 7 {
		a.phase = 4
	}
	for p := range a.planes {
		a.planes[p] = -uint64(a.phase >> p & 1)
	}
}

// TestLaneVisitsSkipAfterLateCycle runs lateCycle walkers to horizons
// 1–48 with and without lasso retirement, and requires equal reports
// after Skip. The block saves the state at t = 4, where the cycle starts,
// and sees it again at t = 7; a lane retired there would have seen two of
// the three nodes only once, so the second period before retirement is
// what makes the reports exact.
func TestLaneVisitsSkipAfterLateCycle(t *testing.T) {
	const lanes = 48
	run := func(lasso bool) (*LaneVisits, *fsync.LockstepSimulator) {
		cfg := fsync.LockstepConfig{Adversary: &lateCycle{}, Lasso: lasso}
		for l := range lanes {
			cfg.Lanes = append(cfg.Lanes, fsync.LaneRun{
				Table:      baseline.KeepDirection,
				Placements: []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
				Horizon:    l + 1,
			})
		}
		ls, err := fsync.NewLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lv := NewLaneVisits()
		lv.Reset(3)
		lv.Record(0, ls.Occupancy(), ^uint64(0)>>(64-lanes))
		for !ls.Done() {
			stepped := ls.Step()
			lv.Record(ls.Now(), ls.Occupancy(), stepped)
		}
		return lv, ls
	}
	full, _ := run(false)
	short, ls := run(true)
	skipped := 0
	for l := range lanes {
		h := l + 1
		if at, period, skip := ls.Lasso(l); skip > 0 {
			if at != 7 || period != 3 {
				t.Fatalf("horizon %d: lasso at %d with period %d, want 7 and 3", h, at, period)
			}
			short.Skip(l, h-skip, period, skip)
			skipped++
		}
		if got, want := short.Report(l, h+1), full.Report(l, h+1); !reflect.DeepEqual(got, want) {
			t.Errorf("horizon %d: lasso report %+v, full %+v", h, got, want)
		}
	}
	if skipped != lanes-12 {
		t.Fatalf("%d lanes retired at their lasso, want %d (every horizon from 13 on)", skipped, lanes-12)
	}
}

// lateCycleDyn is lateCycle as scalar dynamics: its phase is its lasso
// key, so a Lasso run of a walker saves the state at t = 4, where the
// cycle starts, and sees it again at t = 7.
type lateCycleDyn struct{ phase int }

func (a *lateCycleDyn) Ring() ring.Ring                { return ring.New(3) }
func (a *lateCycleDyn) AppendLassoKey(dst []int) []int { return append(dst, a.phase) }
func (a *lateCycleDyn) EdgesAtInto(_ int, _ *fsync.Snapshot, dst *ring.EdgeSet) {
	dst.Clear()
	if a.phase >= 4 {
		dst.Fill()
	}
	if a.phase++; a.phase == 7 {
		a.phase = 4
	}
}

// TestVisitTrackerLassoSkipAfterLateCycle is TestLaneVisitsSkipAfterLateCycle
// on the scalar engine: lateCycleDyn walkers run to horizons 1–48 with
// and without lasso retirement, and Skip must carry every per-node visit
// count, last visit and the horizon to the full run's report. A run
// retired at t = 7 would have seen two of the three nodes only once.
func TestVisitTrackerLassoSkipAfterLateCycle(t *testing.T) {
	run := func(lasso bool, h int) (ExplorationReport, *fsync.Simulator) {
		vt := NewVisitTracker(3)
		sim, err := fsync.New(fsync.Config{
			Algorithm:  baseline.KeepDirection,
			Dynamics:   &lateCycleDyn{},
			Placements: []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
			Observers:  []fsync.Observer{vt},
			Lasso:      lasso,
			Horizon:    h,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(h)
		if sim.Retired() {
			_, period, skip := sim.Lasso()
			vt.Skip(sim.Now(), period, skip, sim.CycleVisits())
		}
		return vt.Report(), sim
	}
	skipped := 0
	for h := 1; h <= 48; h++ {
		full, _ := run(false, h)
		got, sim := run(true, h)
		if sim.Retired() {
			if at, period, _ := sim.Lasso(); at != 7 || period != 3 {
				t.Fatalf("horizon %d: lasso at %d with period %d, want 7 and 3", h, at, period)
			}
			skipped++
		}
		if !reflect.DeepEqual(got, full) {
			t.Errorf("horizon %d: lasso report %+v, full %+v", h, got, full)
		}
	}
	if skipped != 48-12 {
		t.Fatalf("%d runs retired at their lasso, want %d (every horizon from 13 on)", skipped, 48-12)
	}
}

// laneTowerGraph returns a per-lane oblivious schedule from a mix of
// families, sparse and dense, so towers form and dissolve often.
func laneTowerGraph(n, kind int, seed uint64) dyngraph.EvolvingGraph {
	switch kind % 4 {
	case 0:
		return dynamics.NewBernoulli(n, 0.7, seed)
	case 1:
		return dyngraph.NewEventualMissing(
			dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.4, seed), 4, seed^0x51DE),
			int(seed%uint64(n)), 6)
	case 2:
		return dynamics.NewTInterval(n, 3, seed)
	default:
		return dynamics.NewBernoulli(n, 0.3, seed)
	}
}

// TestLaneTowersMatchesTowerInvariants runs lane blocks of every rule
// table on random oblivious dynamics beside one scalar simulator per lane
// carrying TowerInvariants, and requires per lane the same tower rounds
// and a flag exactly when the scalar checker records a violation. The
// tables outside their valid range (keep-direction, tower-bounce, the two
// rule ablations) really break the lemmas, so both flag words are
// exercised; the test fails if either never fires. Odd trials draw a team
// size per lane, so narrower teams ride in a block sized for the widest.
func TestLaneTowersMatchesTowerInvariants(t *testing.T) {
	algs := []robot.Table{
		core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3,
		baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
	}
	src := prng.NewSource(0x70E5)
	lt := NewLaneTowers()
	var seen34, seen33 [2]int // by trial parity: one team size, mixed teams
	for trial := 0; trial < 54; trial++ {
		alg := algs[trial%len(algs)] // every table runs six trials
		n := 4 + src.Intn(9)
		k := 3 + src.Intn(min(4, n-3))
		lanes := 1 + src.Intn(64)
		horizon := 20 + src.Intn(60)

		var cfg fsync.LockstepConfig
		sims := make([]*fsync.Simulator, lanes)
		tis := make([]*TowerInvariants, lanes)
		for l := 0; l < lanes; l++ {
			seed := src.Uint64()
			k := k
			if trial%2 == 1 {
				k = 2 + src.Intn(min(5, n-2))
			}
			cfg.Lanes = append(cfg.Lanes, fsync.LaneRun{
				Table:      alg,
				Graph:      laneTowerGraph(n, l, seed),
				Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)),
				Horizon:    horizon + l%5,
			})
			tis[l] = &TowerInvariants{MaxViolations: 1 << 20}
			sim, err := fsync.New(fsync.Config{
				Algorithm:  alg,
				Dynamics:   fsync.Oblivious{G: laneTowerGraph(n, l, seed)},
				Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)),
				Observers:  []fsync.Observer{tis[l]},
			})
			if err != nil {
				t.Fatal(err)
			}
			sims[l] = sim
		}
		ls, err := fsync.NewLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lt.Reset(n, ls.Robots())
		for !ls.Done() {
			lt.Look(ls.Rows(), ls.Active())
			stepped := ls.Step()
			lt.Compute(ls.PointsCW)
			for l, sim := range sims {
				if stepped&(1<<uint(l)) != 0 {
					sim.Step()
				}
			}
		}
		flagged := lt.Lemma34() | lt.Lemma33()
		for l, ti := range tis {
			bit := uint64(1) << uint(l)
			if got, want := lt.TowerRounds(l), ti.TowerRounds(); got != want {
				t.Fatalf("trial %d (%s n=%d k=%d) lane %d: tower rounds %d, scalar %d", trial, alg.Name(), n, len(cfg.Lanes[l].Placements), l, got, want)
			}
			if got, want := flagged&bit != 0, !ti.OK(); got != want {
				t.Fatalf("trial %d (%s n=%d k=%d) lane %d: flagged %v, scalar violations %v", trial, alg.Name(), n, len(cfg.Lanes[l].Placements), l, got, ti.Violations())
			}
			// With the cap lifted, each lemma's word must match the
			// scalar violations of that lemma alone.
			for _, c := range []struct {
				word  uint64
				lemma string
			}{{lt.Lemma34(), "(Lemma 3.4)"}, {lt.Lemma33(), "(Lemma 3.3)"}} {
				want := slices.ContainsFunc(ti.Violations(), func(s string) bool { return strings.HasSuffix(s, c.lemma) })
				if got := c.word&bit != 0; got != want {
					t.Fatalf("trial %d (%s n=%d k=%d) lane %d: %s flag %v, scalar violations %v", trial, alg.Name(), n, len(cfg.Lanes[l].Placements), l, c.lemma, got, ti.Violations())
				}
			}
		}
		seen34[trial%2] += bits.OnesCount64(lt.Lemma34())
		seen33[trial%2] += bits.OnesCount64(lt.Lemma33())
	}
	if slices.Contains(seen34[:], 0) || slices.Contains(seen33[:], 0) {
		t.Fatalf("lemma flags never fired (3.4: %v lanes, 3.3: %v lanes; one team size, mixed teams): the trials do not exercise the checker", seen34, seen33)
	}
}

// TestLaneTowersAllocFree pins the per-round cost of the lane tower
// checker: once armed, a Look/Compute round allocates nothing, towers
// included (keep-direction on a sparse ring forms them all the time).
func TestLaneTowersAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, k = 8, 4
	src := prng.NewSource(5)
	var cfg fsync.LockstepConfig
	for l := 0; l < 64; l++ {
		seed := src.Uint64()
		cfg.Lanes = append(cfg.Lanes, fsync.LaneRun{
			Table:      baseline.KeepDirection,
			Graph:      dynamics.NewBernoulli(n, 0.3, seed),
			Placements: fsync.RandomPlacements(n, k, prng.NewSource(seed)),
			Horizon:    1 << 20,
		})
	}
	ls, err := fsync.NewLockstep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt := NewLaneTowers()
	lt.Reset(n, k)
	round := func() {
		lt.Look(ls.Rows(), ls.Active())
		ls.Step()
		lt.Compute(ls.PointsCW)
	}
	round() // warm the engine's buffers
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("LaneTowers round allocates %.1f times, want 0", allocs)
	}
	if lt.TowerRounds(0) == 0 {
		t.Fatal("no tower formed: the measured rounds skip the tower path")
	}
}
