package adversary

import (
	"fmt"
	"slices"

	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
	"pef/internal/robot"
)

// MirrorSize is the ring size of the Lemma 4.1 gadget: G′ has 8 nodes, an
// even count so that the odd-distance parity argument (Claim 2) goes
// through.
const MirrorSize = 8

// mirrorF1 and mirrorF2 are the adjacent nodes carrying the two robot
// copies at the stall time; the edge between them (index mirrorF1) is the
// eventually missing edge of G′.
const (
	mirrorF1     = 3
	mirrorF2     = 4
	mirrorCutoff = mirrorF1 // edge joining f1' and f2'
)

// StallInfo describes a run whose robots sit still forever: the stalled
// robot sat on Node from Since onwards with one adjacent edge missing, on
// side MissingSide, the input the Lemma 4.1 mirror construction needs.
type StallInfo struct {
	// Robot is the index of the stalled robot.
	Robot int
	// Node is where it is stuck.
	Node int
	// Since is the last instant at which some robot changed node (0 when
	// none ever did).
	Since int
	// MissingSide is the global direction from Node towards the blocked
	// adjacent edge.
	MissingSide ring.Direction
}

// Stalled reports whether the run of sim, which looked for its lasso
// (fsync.Config.Lasso), stalled: its lasso closed and no robot changed
// node during the cycle, i.e. lastMove, the last instant some robot
// changed node, is at or before the cycle's first instant. Any other run,
// one whose lasso has not closed included, cycles.
func Stalled(sim *fsync.Simulator, lastMove int) bool {
	at, period, _ := sim.Lasso()
	return at > 0 && lastMove <= at-period
}

// ReadStall reads the stall of a run off its lasso; sim must have set
// Config.Lasso and RecordGraph, and rec observed every round. The stalled
// robot is the first whose node misses exactly one adjacent edge in
// E_Since (the robot a confinement adversary boxes misses two). ok is
// false when the run did not stall or no robot misses exactly one edge.
func ReadStall(sim *fsync.Simulator, rec *fsync.SnapshotRecorder) (info StallInfo, ok bool) {
	since := rec.Len() - 1
	for since > 0 && !slices.Contains(rec.At(since).MovedPrev, true) {
		since--
	}
	if !Stalled(sim, since) {
		return StallInfo{}, false
	}
	g := sim.RecordedGraph()
	for i, v := range rec.At(since).Positions {
		cw := g.Present(g.Ring().EdgeTowards(v, ring.CW), since)
		if ccw := g.Present(g.Ring().EdgeTowards(v, ring.CCW), since); cw != ccw {
			side := ring.CW
			if cw {
				side = ring.CCW
			}
			return StallInfo{Robot: i, Node: v, Since: since, MissingSide: side}, true
		}
	}
	return StallInfo{}, false
}

// MirrorInput packages a stalled execution prefix: a robot that, running
// alg with chirality Chir on the recorded evolving graph G, followed the
// node trajectory Traj (positions at instants 0..StallTime) and then sat
// on Traj[StallTime] under OneEdge with its blocked adjacent edge on side
// MissingSide. States optionally carries the robot's persistent state at
// each instant for the Claim 3/4 checks.
type MirrorInput struct {
	Alg         robot.Algorithm
	Chir        robot.Chirality
	G           dyngraph.EvolvingGraph
	Traj        []int
	States      []robot.StateCode
	StallTime   int
	MissingSide ring.Direction
}

// MirrorWorld is the constructed gadget of Figure 1: the 8-node evolving
// graph G′ together with the placement of the two opposite-chirality robot
// copies.
type MirrorWorld struct {
	// Graph is G′.
	Graph dyngraph.EvolvingGraph
	// Placements holds the two robots: index 0 is r1 (same local behaviour
	// as the original robot), index 1 is its mirrored copy r2.
	Placements [2]fsync.Placement
	// StallTime is the instant t from which edge (f1', f2') is removed
	// forever.
	StallTime int
	// Phi maps the original robot's (at most two) visited nodes into the
	// r1 half of G′.
	Phi map[int]int
	// Orient is the global-direction multiplier between the original ring
	// and the r1 half of G′.
	Orient int

	in MirrorInput
}

// sigmaNode is the reflection of G′ exchanging the two halves; it swaps
// f1' and f2'.
func sigmaNode(x int) int { return (7 - x) % MirrorSize }

// sigmaEdge is the induced reflection on edges; it fixes the central edge
// (f1', f2') and the antipodal edge.
func sigmaEdge(e int) int { return ((6-e)%MirrorSize + MirrorSize) % MirrorSize }

// BuildMirror constructs G′ from a stalled prefix, validating the
// hypotheses of Lemma 4.1: the robot visited at most two adjacent nodes and
// its blocked side at the stall points away from the previously visited
// node. It returns an error when the prefix does not satisfy them.
func BuildMirror(in MirrorInput) (*MirrorWorld, error) {
	if in.Alg == nil || in.G == nil {
		return nil, fmt.Errorf("adversary: mirror input missing algorithm or graph")
	}
	if in.StallTime < 0 || in.StallTime >= len(in.Traj) {
		return nil, fmt.Errorf("adversary: stall time %d outside trajectory of length %d", in.StallTime, len(in.Traj))
	}
	if !in.MissingSide.Valid() {
		return nil, fmt.Errorf("adversary: invalid missing side %d", in.MissingSide)
	}
	if len(in.States) > 0 && len(in.States) != len(in.Traj) {
		return nil, fmt.Errorf("adversary: %d states for %d trajectory points", len(in.States), len(in.Traj))
	}
	orig := in.G.Ring()

	// Collect the visited set R and check the "at most two adjacent nodes"
	// hypothesis (iii) of Lemma 4.1.
	visited := map[int]bool{}
	for _, p := range in.Traj[:in.StallTime+1] {
		if !orig.ValidNode(p) {
			return nil, fmt.Errorf("adversary: trajectory node %d invalid", p)
		}
		visited[p] = true
	}
	if len(visited) > 2 {
		return nil, fmt.Errorf("adversary: robot visited %d nodes, Lemma 4.1 needs at most 2", len(visited))
	}
	f := in.Traj[in.StallTime]
	var other int
	hasOther := false
	for p := range visited {
		if p != f {
			other, hasOther = p, true
		}
	}
	if hasOther {
		if _, adjacent := orig.EdgeBetween(f, other); !adjacent {
			return nil, fmt.Errorf("adversary: visited nodes %d and %d are not adjacent", f, other)
		}
	}

	// Orientation of the embedding: the r1 half of G′ is laid out so that
	// the blocked side at the stall maps to the central edge (f1', f2').
	orient := int(in.MissingSide)
	phi := map[int]int{f: mirrorF1}
	if hasOther {
		// φ(other) = 2, one step away from f1' on the outside; this is
		// only consistent when the original step from f to other is the
		// opposite of the missing side (which Figure 1's case analysis
		// guarantees for prefixes produced by OneEdge confinement).
		delta := 0
		switch other {
		case orig.Next(f, ring.CW):
			delta = 1
		case orig.Next(f, ring.CCW):
			delta = -1
		}
		if delta != -orient {
			return nil, fmt.Errorf("adversary: stall side %s points towards the other visited node; prefix violates the Figure 1 layout", in.MissingSide)
		}
		phi[other] = mirrorF1 - 1
	}

	// Edge schedule constraints for instants before the stall: each edge
	// adjacent to a visited node carries the original edge's schedule, both
	// in the r1 half and (reflected) in the r2 half. The construction of
	// Figure 1 guarantees the constraints never contradict; verify anyway.
	mr := ring.New(MirrorSize)
	constraint := map[int]int{} // G′ edge -> original edge
	for x := range phi {
		for _, d := range []ring.Direction{ring.CW, ring.CCW} {
			origEdge := orig.EdgeTowards(x, d)
			mirDir := ring.Direction(int(d) * orient)
			mirEdge := mr.EdgeTowards(phi[x], mirDir)
			for _, e := range []int{mirEdge, sigmaEdge(mirEdge)} {
				if prev, ok := constraint[e]; ok && prev != origEdge {
					return nil, fmt.Errorf("adversary: contradictory constraints on mirror edge %d (%d vs %d)", e, prev, origEdge)
				}
				constraint[e] = origEdge
			}
		}
	}

	stall := in.StallTime
	g := in.G
	mirror := dyngraph.Func{
		R: mr,
		F: func(e, t int) bool {
			if t >= stall {
				return e != mirrorCutoff
			}
			if origEdge, ok := constraint[e]; ok {
				return g.Present(origEdge, t)
			}
			return true
		},
	}

	i1 := phi[in.Traj[0]]
	chir1 := robot.Chirality(int8(in.Chir) * int8(orient))
	w := &MirrorWorld{
		Graph:     mirror,
		StallTime: stall,
		Phi:       phi,
		Orient:    orient,
		in:        in,
	}
	w.Placements[0] = fsync.Placement{Node: i1, Chirality: chir1}
	w.Placements[1] = fsync.Placement{Node: sigmaNode(i1), Chirality: chir1.Opposite()}
	return w, nil
}

// MirrorReport carries the verdicts of the four claims in the proof of
// Lemma 4.1, plus the post-stall confinement observation.
type MirrorReport struct {
	// Horizon is the number of simulated instants of ε′.
	Horizon int
	// Claim1 (symmetry): at every instant the two robots are in the same
	// state and at reflected positions.
	Claim1 bool
	// Claim2 (no tower): the robots are always at odd distance, hence
	// never co-located.
	Claim2 bool
	// Claim3 (prefix equality): up to the stall time, r1 retraces the
	// original robot's trajectory (and states, when provided) under φ.
	Claim3 bool
	// Claim4: at the stall time the robots stand on the adjacent nodes
	// f1', f2' in equal states.
	Claim4 bool
	// StalledForever: after the stall time neither robot ever moved again
	// within the horizon (the contradiction outcome of Lemma 4.1: only
	// f1', f2' are visited from then on, on an 8-node ring).
	StalledForever bool
	// DistinctVisited counts the distinct G′ nodes visited by both robots
	// over the whole horizon.
	DistinctVisited int
	// Failures lists human-readable claim violations (capped).
	Failures []string
}

// OK reports whether all four claims hold.
func (r MirrorReport) OK() bool { return r.Claim1 && r.Claim2 && r.Claim3 && r.Claim4 }

// Verify runs ε′ on the gadget for stallTime+extra instants and checks
// Claims 1–4 of Lemma 4.1 plus post-stall confinement.
func (w *MirrorWorld) Verify(extra int) (MirrorReport, error) {
	horizon := w.StallTime + extra
	var track mirrorTrack
	sim, err := fsync.New(fsync.Config{
		Algorithm:  w.in.Alg,
		Dynamics:   fsync.Oblivious{G: w.Graph},
		Placements: w.Placements[:],
		Observers:  []fsync.Observer{&track},
	})
	if err != nil {
		return MirrorReport{}, fmt.Errorf("adversary: mirror simulation: %w", err)
	}
	sim.Run(horizon)

	rep := MirrorReport{Horizon: horizon, Claim1: true, Claim2: true, Claim3: true, Claim4: true}
	fail := func(ok *bool, format string, args ...interface{}) {
		*ok = false
		if len(rep.Failures) < 16 {
			rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
		}
	}

	mr := ring.New(MirrorSize)
	distinct := map[int]bool{}
	for t, cfg := range track.snaps {
		p1, p2 := cfg.Positions[0], cfg.Positions[1]
		distinct[p1] = true
		distinct[p2] = true
		if p2 != sigmaNode(p1) || cfg.States[0] != cfg.States[1] {
			fail(&rep.Claim1, "t=%d: asymmetric configuration: r1@%d(%s) r2@%d(%s)", t, p1, cfg.States[0], p2, cfg.States[1])
		}
		if mr.CWDist(p1, p2)%2 == 0 {
			fail(&rep.Claim2, "t=%d: robots at even distance (%d, %d)", t, p1, p2)
		}
		if t <= w.StallTime {
			want, ok := w.Phi[w.in.Traj[t]]
			if !ok || p1 != want {
				fail(&rep.Claim3, "t=%d: r1 at %d, expected φ(%d)=%d", t, p1, w.in.Traj[t], want)
			}
			if len(w.in.States) > 0 && cfg.States[0] != w.in.States[t] {
				fail(&rep.Claim3, "t=%d: r1 state %q, original %q", t, cfg.States[0], w.in.States[t])
			}
		}
	}
	if w.StallTime < len(track.snaps) {
		cfg := track.snaps[w.StallTime]
		if cfg.Positions[0] != mirrorF1 || cfg.Positions[1] != mirrorF2 {
			fail(&rep.Claim4, "stall t=%d: robots at (%d,%d), expected (f1'=%d, f2'=%d)",
				w.StallTime, cfg.Positions[0], cfg.Positions[1], mirrorF1, mirrorF2)
		}
		if cfg.States[0] != cfg.States[1] {
			fail(&rep.Claim4, "stall t=%d: states differ: %q vs %q", w.StallTime, cfg.States[0], cfg.States[1])
		}
	} else {
		fail(&rep.Claim4, "horizon %d does not reach stall time %d", len(track.snaps), w.StallTime)
	}

	rep.StalledForever = true
	for t := w.StallTime; t < len(track.snaps); t++ {
		cfg := track.snaps[t]
		if cfg.Positions[0] != mirrorF1 || cfg.Positions[1] != mirrorF2 {
			rep.StalledForever = false
			break
		}
	}
	rep.DistinctVisited = len(distinct)
	return rep, nil
}

// mirrorTrack records the per-instant snapshots of ε′ including the initial
// configuration.
type mirrorTrack struct {
	snaps []fsync.Snapshot
}

func (m *mirrorTrack) ObserveRound(ev *fsync.RoundEvent) {
	if len(m.snaps) == 0 {
		m.snaps = append(m.snaps, ev.Before.Clone())
	}
	m.snaps = append(m.snaps, ev.After.Clone())
}
