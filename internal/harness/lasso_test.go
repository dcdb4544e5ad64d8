package harness

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pef/internal/adversary"
	"pef/internal/baseline"
	"pef/internal/core"
	"pef/internal/dynamics"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/robot"
	"pef/internal/spec"
	"pef/internal/telemetry"
)

// lassoTables are the nine rule tables, the victims a lane block runs.
var lassoTables = []robot.Table{
	core.PEF3Plus, core.PEF2, core.PEF1, core.NoRule2, core.NoRule3,
	baseline.KeepDirection, baseline.BounceOnMissing, baseline.TowerBounce, baseline.Oscillator,
}

// lassoShape is one run of the lasso tests: a rule table, its placements
// and a constructor of fresh dynamics, so the lane and its scalar
// reference each get their own adversary.
type lassoShape struct {
	name  string
	table robot.Table
	place []fsync.Placement
	dyn   func() fsync.Dynamics
}

func (sh lassoShape) lane(horizon int) Lane {
	return Lane{Dynamics: sh.dyn(), Table: sh.table, Placements: sh.place, Horizon: horizon}
}

// full is the reference report: a plain scalar run of sh to the horizon
// under a visit tracker.
func (sh lassoShape) full(t *testing.T, horizon int) spec.ExplorationReport {
	t.Helper()
	dyn := sh.dyn()
	vt := spec.NewVisitTracker(dyn.Ring().Size())
	sim, err := fsync.New(fsync.Config{Algorithm: sh.table, Dynamics: dyn, Placements: sh.place, Observers: []fsync.Observer{vt}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(horizon)
	return vt.Report()
}

// laneVisits reduces a scalar report's per-node visit counts to the form
// LaneVisits reports: nil when every node was visited twice, {1} if not.
func laneVisits(rep spec.ExplorationReport) spec.ExplorationReport {
	if slices.ContainsFunc(rep.Visits, func(c int) bool { return c < 2 }) || len(rep.Visits) < rep.Nodes {
		rep.Visits = []int{1}
	} else {
		rep.Visits = nil
	}
	return rep
}

// adversaryShapes draws the adversary runs of one ring: block-pointed with
// budgets 1–4 (teams of 1 to 5), confine-one and, from n = 4, confine-two,
// each under two of the nine tables, rotated with the ring so that every
// (adversary, table) pair occurs across rings 3–20.
func adversaryShapes(n int, src *prng.Source) []lassoShape {
	chir := []robot.Chirality{robot.RightIsCW, robot.RightIsCCW}
	var out []lassoShape
	for kind := range 6 {
		if kind == 5 && n < 4 {
			continue
		}
		for j := range 2 {
			table := lassoTables[(n+kind+4*j)%len(lassoTables)]
			sh := lassoShape{table: table}
			switch budget := kind + 1; {
			case kind < 4:
				sh.name = fmt.Sprintf("block-pointed-b%d", budget)
				sh.place = fsync.RandomPlacements(n, 1+src.Intn(min(5, n-1)), prng.NewSource(src.Uint64()))
				sh.dyn = func() fsync.Dynamics { return adversary.NewBlockPointed(n, budget) }
			case kind == 4:
				sh.name = "confine-one"
				sh.place = []fsync.Placement{{Node: 0, Chirality: chir[src.Intn(2)]}}
				sh.dyn = func() fsync.Dynamics { return adversary.NewOneRobotConfinement(n, 0, 0) }
			default:
				sh.name = "confine-two"
				sh.place = []fsync.Placement{{Node: 0, Chirality: chir[src.Intn(2)]}, {Node: 1, Chirality: chir[src.Intn(2)]}}
				sh.dyn = func() fsync.Dynamics { return adversary.NewTwoRobotConfinement(n, 0, 0, 1) }
			}
			sh.name += "/" + table.Name()
			out = append(out, sh)
		}
	}
	return out
}

// bernoulliShape is a graph lane, which never lassos.
func bernoulliShape(n int, src *prng.Source) lassoShape {
	seed := src.Uint64()
	return lassoShape{
		name:  "bernoulli",
		table: lassoTables[src.Intn(len(lassoTables))],
		place: fsync.RandomPlacements(n, 1+src.Intn(min(5, n-1)), prng.NewSource(seed)),
		dyn:   func() fsync.Dynamics { return fsync.Oblivious{G: dynamics.NewBernoulli(n, 0.6, seed)} },
	}
}

// lassoOf runs the shapes, all adversary runs on an n-node ring, as lanes
// of long horizon and returns each one's detection instant and period.
func lassoOf(t *testing.T, n int, shapes []lassoShape) (at, period []int) {
	t.Helper()
	for chunk := range slices.Chunk(shapes, 64) {
		runs := make([]fsync.LaneRun, len(chunk))
		dyns := make([]fsync.Dynamics, len(chunk))
		for l, sh := range chunk {
			runs[l] = fsync.LaneRun{Table: sh.table, Placements: sh.place, Horizon: 1 << 14}
			dyns[l] = sh.dyn()
		}
		var adv adversary.Lanes
		adv.Reset(dyns)
		ls, err := fsync.NewLockstep(fsync.LockstepConfig{Lanes: runs, Adversary: &adv, Lasso: true})
		if err != nil {
			t.Fatal(err)
		}
		for !ls.Done() {
			ls.Step()
		}
		for l, sh := range chunk {
			a, p, _ := ls.Lasso(l)
			if p == 0 {
				t.Fatalf("n=%d %s: no repeat within %d rounds", n, sh.name, 1<<14)
			}
			at, period = append(at, a), append(period, p)
		}
	}
	return at, period
}

// lassoCounters wires the two lasso counters and the word-step counter.
func lassoCounters() (*fsync.Metrics, func() (lasso, skipped, rounds int64)) {
	reg := telemetry.NewRegistry()
	m := &fsync.Metrics{
		LockstepRounds:    reg.Counter("rounds"),
		LassoLanes:        reg.Counter("lasso"),
		SkippedLaneRounds: reg.Counter("skipped"),
	}
	return m, func() (int64, int64, int64) {
		return m.LassoLanes.Value(), m.SkippedLaneRounds.Value(), m.LockstepRounds.Value()
	}
}

// TestLaneLassoMatchesFullHorizon checks lasso retirement against full
// runs. On rings 3–20 it learns each adversary run's detection instant t₂
// and period p, then runs it in blocks that mix block-pointed (budgets
// 1–4), confine-one, confine-two and Bernoulli lanes over the nine
// tables, at horizons that put H − t₂ on every residue mod p with no
// whole period to skip, with one and with many, plus horizons that end
// before the detection, at it and within the period after it. Every
// lane's report must be the one a plain scalar run to H yields.
func TestLaneLassoMatchesFullHorizon(t *testing.T) {
	src := prng.NewSource(0x1A550)
	m, counts := lassoCounters()
	early := int64(0) // the runs whose horizon lies two periods or more past t₂
	for n := 3; n <= 20; n++ {
		shapes := adversaryShapes(n, src)
		at, period := lassoOf(t, n, shapes)
		type run struct {
			sh      lassoShape
			horizon int
		}
		var runs []run
		for i, sh := range shapes {
			a, p := at[i], period[i]
			for _, h := range []int{1, a - 1, a, a + p - 1} {
				if h >= 1 {
					runs = append(runs, run{sh, h})
				}
			}
			// Periods reach a few hundred rounds: every residue gets the
			// horizons with no and with one period to skip, and 8 of them
			// also one with many.
			for r := range p {
				runs = append(runs, run{sh, a + p + r}, run{sh, a + 2*p + r})
				if p <= 8 || src.Intn(p) < 8 {
					runs = append(runs, run{sh, a + (3+src.Intn(max(1, 64/p)))*p + r})
					early++
				}
				early++
			}
		}
		for range len(runs) / 8 {
			runs = append(runs, run{bernoulliShape(n, src), 1 + src.Intn(300)})
		}
		for i := len(runs) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			runs[i], runs[j] = runs[j], runs[i]
		}

		for chunk := range slices.Chunk(runs, 64) {
			lanes := make([]Lane, len(chunk))
			for l, r := range chunk {
				lanes[l] = r.sh.lane(r.horizon)
			}
			reps, err := NewLaneBlock().Run(context.Background(), LaneConfig{Lanes: lanes, Metrics: m})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for l, r := range chunk {
				want := laneVisits(r.sh.full(t, r.horizon))
				if x := reps[l]; !reflect.DeepEqual(x.Report, want) || x.Rounds != r.horizon {
					t.Fatalf("n=%d %s h=%d: lane %+v after %d rounds, full run %+v", n, r.sh.name, r.horizon, x.Report, x.Rounds, want)
				}
			}
		}
	}
	if lasso, skipped, _ := counts(); lasso != early || skipped == 0 {
		t.Fatalf("%d lanes retired at their lasso (%d rounds skipped), want %d", lasso, skipped, early)
	}
}

// TestLaneBlockLassoEndsEarly runs a block of confinement lanes, all of
// which lasso within a few rounds: the block must end long before their
// horizon yet report every lane over its full horizon, exactly. With
// Towers set the same block runs every round to the horizon.
func TestLaneBlockLassoEndsEarly(t *testing.T) {
	const n, horizon = 9, 64 * 9
	src := prng.NewSource(5)
	var shapes []lassoShape
	for _, sh := range adversaryShapes(n, src) {
		if sh.name[:7] == "confine" {
			shapes = append(shapes, sh)
		}
	}
	for _, towers := range []bool{false, true} {
		m, counts := lassoCounters()
		lanes := make([]Lane, len(shapes))
		for l, sh := range shapes {
			lanes[l] = sh.lane(horizon)
		}
		reps, err := NewLaneBlock().Run(context.Background(), LaneConfig{Lanes: lanes, Towers: towers, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		for l, sh := range shapes {
			if want := laneVisits(sh.full(t, horizon)); !reflect.DeepEqual(reps[l].Report, want) || reps[l].Rounds != horizon {
				t.Errorf("towers=%v %s: lane %+v after %d rounds, full run %+v", towers, sh.name, reps[l].Report, reps[l].Rounds, want)
			}
		}
		lasso, _, rounds := counts()
		switch {
		case !towers && (lasso != int64(len(shapes)) || rounds >= horizon/4):
			t.Errorf("block of %d confinement lanes: %d lassoed, block ran %d of %d rounds", len(shapes), lasso, rounds, horizon)
		case towers && (lasso != 0 || rounds != horizon):
			t.Errorf("towers block: %d lanes lassoed and the block ran %d rounds, want 0 and %d", lasso, rounds, horizon)
		}
	}
}

// stopAfterPolls is a context whose Err turns Canceled after the given
// number of nil answers: a lane block polls it every PollRounds rounds.
type stopAfterPolls struct {
	context.Context
	polls int
}

func (c *stopAfterPolls) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestLaneBlockCancelledAfterLasso stops a block at its second poll,
// after its confinement lanes have lassoed: they report their full
// horizon, while the Bernoulli lanes, still running, are cut at the poll
// like a scalar run of PollRounds rounds.
func TestLaneBlockCancelledAfterLasso(t *testing.T) {
	const n, horizon = 8, 1000
	src := prng.NewSource(17)
	var shapes []lassoShape
	for _, sh := range adversaryShapes(n, src) {
		if sh.name[:7] == "confine" {
			shapes = append(shapes, sh, bernoulliShape(n, src))
		}
	}
	lanes := make([]Lane, len(shapes))
	for l, sh := range shapes {
		lanes[l] = sh.lane(horizon)
	}
	ctx := &stopAfterPolls{Context: context.Background(), polls: 1}
	reps, err := NewLaneBlock().Run(ctx, LaneConfig{Lanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	for l, sh := range shapes {
		rounds := horizon
		if sh.name == "bernoulli" {
			rounds = PollRounds
		}
		if want := laneVisits(sh.full(t, rounds)); !reflect.DeepEqual(reps[l].Report, want) || reps[l].Rounds != rounds {
			t.Errorf("%s: lane %+v after %d rounds, want %+v after %d", sh.name, reps[l].Report, reps[l].Rounds, want, rounds)
		}
	}
}

// TestConfinementOutcomesPerVictim pins the outcome column of E-T1.R2 and
// E-T1.R4 at quick horizons, read off each run's lasso: six victims stop
// moving inside their cycle and read "stalled" on every ring; the other
// six keep moving in it (or, lcg-walker-7, never repeat within the
// horizon) and read "cycling".
func TestConfinementOutcomesPerVictim(t *testing.T) {
	stalled := map[string]bool{
		"keep-direction": true, "pendulum-3": true, "doubling-zigzag": true,
		"pef3+": true, "pef3+/no-rule2": true, "pef3+/no-rule3": true,
	}
	for _, id := range []string{"E-T1.R2", "E-T1.R4"} {
		e, ok := Find(id, true)
		if !ok {
			t.Fatalf("%s not found", id)
		}
		res, err := e.Run(Config{Seed: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(res.Table.String()), "\n")[2:]
		if len(rows) != 2*len(victimSuite()) {
			t.Fatalf("%s: %d rows, want %d (two quick rings per victim)", id, len(rows), 2*len(victimSuite()))
		}
		for _, row := range rows {
			f := strings.Fields(row) // algorithm, n, visited, outcome, verdict
			want := "cycling"
			if stalled[f[0]] {
				want = "stalled"
			}
			if f[3] != want {
				t.Errorf("%s %s n=%s: outcome %s, want %s", id, f[0], f[1], f[3], want)
			}
		}
	}
}
