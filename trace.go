package pef

import (
	"fmt"

	"pef/internal/fsync"
	"pef/internal/scenario"
	"pef/internal/spec"
	"pef/internal/trace"
)

// ExploreWithDiagram is Explore plus a rendered space-time diagram of the
// first rows instants (Figures 2/3 style: robots, towers, missing edges).
func ExploreWithDiagram(cfg ExploreConfig, rows int) (ExplorationReport, string, error) {
	placements, n, err := explorePlacements(cfg)
	if err != nil {
		return ExplorationReport{}, "", err
	}
	vt := spec.NewVisitTracker(n)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   cfg.Algorithm,
		Dynamics:    cfg.Dynamics,
		Placements:  placements,
		Observers:   []fsync.Observer{vt, rec},
		RecordGraph: true,
	})
	if err != nil {
		return ExplorationReport{}, "", fmt.Errorf("pef: %w", err)
	}
	sim.Run(cfg.Horizon)
	return vt.Report(), renderDiagram(sim, rec, n, rows), nil
}

// ConfinementReport is the outcome of an impossibility-adversary run.
type ConfinementReport struct {
	// DistinctVisited is how many distinct nodes the robots ever occupied.
	DistinctVisited int
	// VisitedNodes lists them.
	VisitedNodes []int
	// Limit is the confinement bound predicted by the paper (2 for one
	// robot, 3 for two robots).
	Limit int
	// Confined reports DistinctVisited <= Limit.
	Confined bool
}

// ConfineOneRobotWithDiagram runs the Theorem 5.1 adversary against alg on
// an n-node ring (n >= 3) for the given horizon: the robot visits at most
// two nodes, whatever alg does. It also renders the space-time diagram of
// the first rows instants of the schedule (Figure 3; rows <= 0 renders
// none).
func ConfineOneRobotWithDiagram(alg Algorithm, n, horizon, rows int) (ConfinementReport, string, error) {
	return confineWithDiagram(scenario.FamilyConfineOne, 1, alg, n, horizon, rows)
}

// ConfineTwoRobotsWithDiagram runs the Theorem 4.1 adversary against alg
// on an n-node ring (n >= 4): the two robots visit at most three nodes. It
// also renders the space-time diagram of the first rows instants of the
// schedule (Figure 2; rows <= 0 renders none).
func ConfineTwoRobotsWithDiagram(alg Algorithm, n, horizon, rows int) (ConfinementReport, string, error) {
	return confineWithDiagram(scenario.FamilyConfineTwo, 2, alg, n, horizon, rows)
}

// confineWithDiagram runs alg as k robots against a confinement family:
// the registry descriptor supplies the adversary, the proof's initial
// configuration and the bound, once the family has accepted the ring.
func confineWithDiagram(family string, k int, alg Algorithm, n, horizon, rows int) (ConfinementReport, string, error) {
	d, _ := scenario.DefaultRegistry().Family(family)
	s := Scenario{Ring: n, Robots: k, Family: family}
	if err := d.Validate(s); err != nil {
		return ConfinementReport{}, "", fmt.Errorf("pef: %w", err)
	}
	dyn, err := d.Build(s)
	if err != nil {
		return ConfinementReport{}, "", fmt.Errorf("pef: %w", err)
	}
	ct := spec.NewConfinementTracker()
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    dyn,
		Placements:  d.Placements(s),
		Observers:   []fsync.Observer{ct, rec},
		RecordGraph: rows > 0,
	})
	if err != nil {
		return ConfinementReport{}, "", fmt.Errorf("pef: %w", err)
	}
	sim.Run(horizon)
	rep := ConfinementReport{
		DistinctVisited: ct.Distinct(),
		VisitedNodes:    ct.VisitedNodes(),
		Limit:           d.ConfineLimit,
		Confined:        ct.ConfinedTo(d.ConfineLimit),
	}
	return rep, renderDiagram(sim, rec, n, rows), nil
}

func renderDiagram(sim *fsync.Simulator, rec *fsync.SnapshotRecorder, n, rows int) string {
	if rows <= 0 {
		return ""
	}
	snaps := make([]fsync.Snapshot, rec.Len())
	for t := range snaps {
		snaps[t] = rec.At(t)
	}
	return trace.Header(n) + trace.SpaceTimeString(sim.RecordedGraph(), snaps, 0, rows)
}
