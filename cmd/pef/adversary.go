package main

import (
	"context"
	"fmt"
	"io"

	"pef"
)

// runAdversary runs the paper's impossibility constructions live: the
// Theorem 5.1 adversary (one robot, rings of size >= 3) and the Theorem
// 4.1 adversary (two robots, rings of size >= 4) against any registered
// algorithm, printing the confinement evidence and a space-time diagram
// of the schedule (Figures 2 and 3).
func runAdversary(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("adversary", stderr)
	var (
		robots = fs.Int("robots", 1, "number of victim robots: 1 (Theorem 5.1) or 2 (Theorem 4.1)")
		n      = fs.Int("n", 8, "ring size")
		algo   = fs.String("alg", "", "algorithm to defeat (empty: all registered)")
		rounds = fs.Int("rounds", 512, "rounds to simulate")
		viz    = fs.Int("viz", 24, "diagram rows to print (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	confine := pef.ConfineOneRobotWithDiagram
	switch *robots {
	case 1:
	case 2:
		confine = pef.ConfineTwoRobotsWithDiagram
	default:
		return fmt.Errorf("robots must be 1 or 2, got %d", *robots)
	}
	names := pef.Algorithms()
	if *algo != "" {
		names = []string{*algo}
	}
	for _, name := range names {
		alg, err := pef.NewAlgorithm(name)
		if err != nil {
			return err
		}
		rep, diagram, err := confine(alg, *n, *rounds, *viz)
		if err != nil {
			return err
		}
		status := "CONFINED"
		if !rep.Confined {
			status = "ESCAPED (bug!)"
		}
		fmt.Fprintf(stdout, "%-24s k=%d n=%-4d visited %d/%d nodes %v  -> %s\n",
			alg.Name(), *robots, *n, rep.DistinctVisited, *n, rep.VisitedNodes, status)
		if diagram != "" {
			fmt.Fprintf(stdout, "\n%s\n", diagram)
		}
		if !rep.Confined {
			return fmt.Errorf("adversary failed against %s", alg.Name())
		}
		*viz = 0 // diagram only for the first victim to keep output readable
	}
	return nil
}
