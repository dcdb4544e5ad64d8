package main

import (
	"context"
	"fmt"
	"io"

	"pef"
	"pef/internal/adversary"
	"pef/internal/fsync"
	"pef/internal/scenario"
	"pef/internal/trace"
)

// runMirror builds and verifies the Lemma 4.1 gadget (Figure 1) live: it
// runs the chosen algorithm as a single robot against the Theorem 5.1
// confinement adversary (the confine-one registry family) until it
// stalls — its lasso closes with no move in the cycle — transfers the
// stalled prefix onto the 8-node mirror ring G′, re-executes two
// opposite-chirality copies there, and reports Claims 1–4 plus the
// permanent freeze.
//
// Example:
//
//	pef mirror -alg keep-direction -n 8
func runMirror(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("mirror", stderr)
	var (
		algo    = fs.String("alg", "keep-direction", "victim algorithm")
		n       = fs.Int("n", 8, "original ring size (>= 3)")
		horizon = fs.Int("horizon", 200, "rounds to hunt for a stall")
		extra   = fs.Int("extra", 48, "instants to verify beyond the stall")
		viz     = fs.Int("viz", 12, "space-time rows of the mirror execution to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	alg, err := pef.NewAlgorithm(*algo)
	if err != nil {
		return err
	}

	// Phase 1: produce a stalled prefix with the Theorem 5.1 adversary.
	d, _ := scenario.DefaultRegistry().Family(scenario.FamilyConfineOne)
	s := scenario.Spec{Ring: *n, Robots: 1, Family: scenario.FamilyConfineOne}
	if err := d.Validate(s); err != nil {
		return err
	}
	adv, err := d.Build(s)
	if err != nil {
		return err
	}
	placements := d.Placements(s)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  placements,
		Observers:   []fsync.Observer{rec},
		RecordGraph: true,
		Lasso:       true,
	})
	if err != nil {
		return err
	}
	sim.Run(*horizon)
	info, stalled := adversary.ReadStall(sim, rec)
	if !stalled {
		return fmt.Errorf("%s never stalled within %d rounds (it cycles; the direct Theorem 5.1 run already confines it — try keep-direction, pendulum-3, doubling-zigzag or pef3+)", alg.Name(), *horizon)
	}
	fmt.Fprintf(stdout, "stall found: robot on node %d since t=%d, blocked side %s\n",
		info.Node, info.Since, info.MissingSide)

	// Phase 2: build and verify the gadget.
	world, err := adversary.BuildMirror(adversary.MirrorInput{
		Alg:         alg,
		Chir:        placements[info.Robot].Chirality,
		G:           sim.RecordedGraph(),
		Traj:        rec.Trajectory(info.Robot)[:info.Since+1],
		States:      rec.States(info.Robot)[:info.Since+1],
		StallTime:   info.Since,
		MissingSide: info.MissingSide,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mirror G': %d nodes, r1 starts at %d (%v), r2 at %d (%v), cut edge removed from t=%d\n",
		adversary.MirrorSize,
		world.Placements[0].Node, world.Placements[0].Chirality,
		world.Placements[1].Node, world.Placements[1].Chirality,
		world.StallTime)

	rep, err := world.Verify(*extra)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nClaim 1 (symmetric actions)      %t\n", rep.Claim1)
	fmt.Fprintf(stdout, "Claim 2 (odd distance, no tower) %t\n", rep.Claim2)
	fmt.Fprintf(stdout, "Claim 3 (prefix retraced)        %t\n", rep.Claim3)
	fmt.Fprintf(stdout, "Claim 4 (adjacent, same state)   %t\n", rep.Claim4)
	fmt.Fprintf(stdout, "frozen forever after stall       %t\n", rep.StalledForever)
	fmt.Fprintf(stdout, "distinct G' nodes visited        %d/%d\n", rep.DistinctVisited, adversary.MirrorSize)
	for _, f := range rep.Failures {
		fmt.Fprintln(stdout, "violation:", f)
	}

	if *viz > 0 {
		// Re-run the mirror execution to render it.
		mrec := &fsync.SnapshotRecorder{}
		msim, err := fsync.New(fsync.Config{
			Algorithm:   alg,
			Dynamics:    fsync.Oblivious{G: world.Graph},
			Placements:  world.Placements[:],
			Observers:   []fsync.Observer{mrec},
			RecordGraph: true,
		})
		if err != nil {
			return err
		}
		msim.Run(world.StallTime + *viz)
		snaps := make([]fsync.Snapshot, mrec.Len())
		for i := range snaps {
			snaps[i] = mrec.At(i)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Header(adversary.MirrorSize))
		fmt.Fprint(stdout, trace.SpaceTimeString(msim.RecordedGraph(), snaps, 0, world.StallTime+*viz))
	}
	if !rep.OK() {
		return fmt.Errorf("claims failed")
	}
	return nil
}
