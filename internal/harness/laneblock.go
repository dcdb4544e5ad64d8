package harness

import (
	"context"
	"fmt"

	"pef/internal/adversary"
	"pef/internal/fsync"
	"pef/internal/robot"
	"pef/internal/spec"
)

// LaneEligible reports whether a run under dyn may ride a lane of a
// lockstep block on an n-node ring: an oblivious graph, or a fresh
// block-pointed or confinement adversary on that ring, which the block
// drives through their lane form (adversary.Lanes, as adversary.LaneForm
// admits them). Any other dynamics runs scalar.
func LaneEligible(dyn fsync.Dynamics, n int) bool {
	if d, ok := dyn.(fsync.Oblivious); ok {
		return d.G != nil
	}
	return adversary.LaneForm(dyn, n)
}

// PollRounds is the number of rounds between context polls, on the lanes
// here and on the scalar oracle (scenario.RunWith): a cancelled run stops
// at the first multiple of it.
const PollRounds = 256

// Lane is one run of a lane block; its dynamics is LaneEligible, and
// every robot runs its rule table.
type Lane struct {
	Dynamics   fsync.Dynamics
	Table      robot.Table
	Placements []fsync.Placement
	Horizon    int
}

// LaneConfig describes one lane block: 1 to 64 lanes on one ring, of any
// team sizes and rule tables. Towers also checks the tower lemmas 3.3 and
// 3.4 on every lane. Metrics, when non-nil, receives the engine counters.
type LaneConfig struct {
	Lanes   []Lane
	Towers  bool
	Metrics *fsync.Metrics
}

// LaneReport is the outcome of one lane. Rounds is the number of rounds
// the lane ran: its horizon, or fewer when the context stopped the block
// first. Towers counts the rounds with a tower and Flagged reports a
// broken tower lemma; both stay zero unless LaneConfig.Towers is set.
type LaneReport struct {
	Report  spec.ExplorationReport
	Rounds  int
	Towers  int
	Flagged bool
}

// LaneBlock is the one lockstep lane-block runner, under both
// scenario.RunBlock (campaigns, search, serve) and the Table 1 possibility
// rows (explorations), which keep only their verdict logic; it lives here
// because package scenario imports harness. It keeps its trackers, lane
// buffers and lane adversary from block to block, so it serves one
// goroutine at a time.
type LaneBlock struct {
	lv   *spec.LaneVisits
	lt   *spec.LaneTowers
	runs []fsync.LaneRun
	advs []fsync.Dynamics // per lane: the adversary, nil for graph lanes
	adv  adversary.Lanes
}

// NewLaneBlock returns a runner with empty buffers.
func NewLaneBlock() *LaneBlock {
	return &LaneBlock{lv: spec.NewLaneVisits(), lt: spec.NewLaneTowers()}
}

// Run executes cfg's lanes as one lockstep block and returns their
// reports in lane order. An error means a lane's dynamics has no lane
// form or the engine rejected the block, before any round ran; a panic
// mid-run propagates. Each report is the one the lane's scalar run
// yields under a visit tracker (and the tower invariants), cut at the
// same round when the context stops the block.
func (b *LaneBlock) Run(ctx context.Context, cfg LaneConfig) ([]LaneReport, error) {
	b.runs, b.advs = b.runs[:0], b.advs[:0]
	var adv fsync.LaneAdversary
	advRing := 0
	for l, ln := range cfg.Lanes {
		run := fsync.LaneRun{Table: ln.Table, Placements: ln.Placements, Horizon: ln.Horizon}
		var d fsync.Dynamics
		switch g, ok := ln.Dynamics.(fsync.Oblivious); {
		case ok:
			run.Graph = g.G
		case !adversary.LaneForm(ln.Dynamics, ln.Dynamics.Ring().Size()):
			return nil, fmt.Errorf("harness: lane %d: %T has no lane form", l, ln.Dynamics)
		default:
			d, adv, advRing = ln.Dynamics, &b.adv, ln.Dynamics.Ring().Size()
		}
		b.runs = append(b.runs, run)
		b.advs = append(b.advs, d)
	}
	if adv != nil {
		b.adv.Reset(advRing, b.advs)
	}
	ls, err := fsync.AcquireLockstep(fsync.LockstepConfig{Lanes: b.runs, Adversary: adv, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}

	n, lv, lt := ls.Ring().Size(), b.lv, b.lt
	lv.Reset(n)
	if cfg.Towers {
		lt.Reset(n, ls.Robots())
	}
	sinceCheck, primed := 0, false
	for !ls.Done() {
		if sinceCheck <= 0 {
			if ctx.Err() != nil {
				break
			}
			sinceCheck = PollRounds
		}
		if !primed {
			// The initial configuration counts as a visited instant, but —
			// like the scalar trackers, which prime on the first observed
			// round — only once at least one round actually executes.
			lv.Record(0, ls.Occupancy(), ^uint64(0)>>uint(64-len(cfg.Lanes)))
			primed = true
		}
		if cfg.Towers {
			lt.Look(ls.Rows(), ls.Active())
		}
		stepped := ls.Step()
		if cfg.Towers {
			lt.Compute(ls.PointsCW)
		}
		lv.Record(ls.Now(), ls.Occupancy(), stepped)
		sinceCheck--
	}
	executed := ls.Now()
	ls.Release()

	out := make([]LaneReport, len(cfg.Lanes))
	for l, ln := range cfg.Lanes {
		x := &out[l]
		x.Rounds = min(ln.Horizon, executed)
		instants := ln.Horizon + 1
		if x.Rounds < ln.Horizon {
			instants = executed + 1
			if !primed {
				instants = 0 // no round ran: the scalar tracker saw nothing
			}
		}
		x.Report = lv.Report(l, instants)
		if cfg.Towers {
			x.Towers = lt.TowerRounds(l)
			x.Flagged = (lt.Lemma34()|lt.Lemma33())&(1<<uint(l)) != 0
		}
	}
	return out, nil
}
