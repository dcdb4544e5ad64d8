// Command pefmirror builds and verifies the Lemma 4.1 gadget (Figure 1)
// live: it runs the chosen algorithm as a single robot against the
// Theorem 5.1 confinement adversary until it stalls, transfers the stalled
// prefix onto the 8-node mirror ring G′, re-executes two opposite-chirality
// copies there, and reports Claims 1–4 plus the permanent freeze.
//
// Example:
//
//	pefmirror -alg keep-direction -n 8
package main

import (
	"flag"
	"fmt"
	"os"

	"pef"
	"pef/internal/adversary"
	"pef/internal/fsync"
	"pef/internal/robot"
	"pef/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pefmirror:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo     = flag.String("alg", "keep-direction", "victim algorithm")
		n        = flag.Int("n", 8, "original ring size (>= 3)")
		horizon  = flag.Int("horizon", 200, "rounds to hunt for a stall")
		patience = flag.Int("patience", 50, "rounds without phase progress that count as a stall")
		extra    = flag.Int("extra", 48, "instants to verify beyond the stall")
		viz      = flag.Int("viz", 12, "space-time rows of the mirror execution to print")
	)
	flag.Parse()

	alg, err := pef.NewAlgorithm(*algo)
	if err != nil {
		return err
	}

	// Phase 1: produce a stalled prefix with the Theorem 5.1 adversary.
	adv := adversary.NewOneRobotConfinement(*n, 0, 0)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    adv,
		Placements:  []fsync.Placement{{Node: 0, Chirality: robot.RightIsCW}},
		Observers:   []fsync.Observer{rec},
		RecordGraph: true,
	})
	if err != nil {
		return err
	}
	sim.Run(*horizon)
	info, stalled := adv.Stall(sim.Now(), *patience)
	if !stalled {
		return fmt.Errorf("%s never stalled within %d rounds (it cycles; the direct Theorem 5.1 run already confines it — try keep-direction, pendulum-3, doubling-zigzag or pef3+)", alg.Name(), *horizon)
	}
	fmt.Printf("stall found: robot on node %d since t=%d, blocked side %s\n",
		info.Node, info.Since, info.MissingSide)

	// Phase 2: build and verify the gadget.
	world, err := adversary.BuildMirror(adversary.MirrorInput{
		Alg:         alg,
		Chir:        robot.RightIsCW,
		G:           sim.RecordedGraph(),
		Traj:        rec.Trajectory(0)[:info.Since+1],
		States:      rec.States(0)[:info.Since+1],
		StallTime:   info.Since,
		MissingSide: info.MissingSide,
	})
	if err != nil {
		return err
	}
	fmt.Printf("mirror G': %d nodes, r1 starts at %d (%v), r2 at %d (%v), cut edge removed from t=%d\n",
		adversary.MirrorSize,
		world.Placements[0].Node, world.Placements[0].Chirality,
		world.Placements[1].Node, world.Placements[1].Chirality,
		world.StallTime)

	rep, err := world.Verify(*extra)
	if err != nil {
		return err
	}
	fmt.Printf("\nClaim 1 (symmetric actions)      %t\n", rep.Claim1)
	fmt.Printf("Claim 2 (odd distance, no tower) %t\n", rep.Claim2)
	fmt.Printf("Claim 3 (prefix retraced)        %t\n", rep.Claim3)
	fmt.Printf("Claim 4 (adjacent, same state)   %t\n", rep.Claim4)
	fmt.Printf("frozen forever after stall       %t\n", rep.StalledForever)
	fmt.Printf("distinct G' nodes visited        %d/%d\n", rep.DistinctVisited, adversary.MirrorSize)
	for _, f := range rep.Failures {
		fmt.Println("violation:", f)
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
		fmt.Println()
		fmt.Print(trace.Header(adversary.MirrorSize))
		fmt.Print(trace.SpaceTimeString(msim.RecordedGraph(), snaps, 0, world.StallTime+*viz))
	}
	if !rep.OK() {
		return fmt.Errorf("claims failed")
	}
	return nil
}
