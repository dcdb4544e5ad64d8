// Command pefsim runs one fully synchronous execution of a perpetual
// exploration algorithm on a dynamic ring and reports the exploration
// verdict, optionally with a space-time diagram of the first rounds.
//
// Examples:
//
//	pefsim -n 8 -k 3 -alg pef3+ -dyn eventual-missing -rounds 2000
//	pefsim -n 3 -k 2 -alg pef2 -dyn bernoulli -p 0.5 -rounds 1000
//	pefsim -n 8 -k 3 -alg pef3+ -dyn block-pointed -budget 3 -viz 40
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pef"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/prng"
	"pef/internal/spec"
	"pef/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pefsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pefsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n      = fs.Int("n", 8, "ring size (number of nodes)")
		k      = fs.Int("k", 3, "number of robots")
		algo   = fs.String("alg", "pef3+", "algorithm name (see -list)")
		dyn    = fs.String("dyn", "static", "dynamics: static|bernoulli|eventual-missing|t-interval|roving|chain|block-pointed")
		p      = fs.Float64("p", 0.6, "edge presence probability (bernoulli)")
		edge   = fs.Int("edge", 0, "edge index (eventual-missing, chain)")
		from   = fs.Int("from", 32, "removal time (eventual-missing)")
		tint   = fs.Int("t", 4, "interval length (t-interval)")
		period = fs.Int("period", 3, "rotation period (roving)")
		budget = fs.Int("budget", 3, "absence budget (block-pointed)")
		rounds = fs.Int("rounds", 2000, "rounds to simulate")
		seed   = fs.Uint64("seed", 42, "random seed")
		viz    = fs.Int("viz", 0, "render a space-time diagram of the first N rounds")
		list   = fs.Bool("list", false, "list registered algorithms and exit")
		save   = fs.String("save", "", "save the realized evolving graph to this JSON file")
		load   = fs.String("load", "", "replay a previously saved evolving graph instead of -dyn")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range pef.Algorithms() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *rounds < 1 {
		return fmt.Errorf("Horizon must be >= 1, got %d (a non-positive horizon executes no rounds)", *rounds)
	}

	alg, err := pef.NewAlgorithm(*algo)
	if err != nil {
		return err
	}
	var dynamics pef.Dynamics
	if *load != "" {
		rec, err := loadGraph(*load)
		if err != nil {
			return err
		}
		*n = rec.Ring().Size()
		*dyn = "replay:" + *load
		dynamics = fsync.Oblivious{G: rec}
	}
	if *k < 1 || *k >= *n {
		return fmt.Errorf("need 0 < Robots < Nodes, got k=%d n=%d", *k, *n)
	}
	if dynamics == nil {
		dynamics, err = buildDynamics(*dyn, *n, *p, *edge, *from, *tint, *period, *budget, *seed)
		if err != nil {
			return err
		}
	}

	vt := spec.NewVisitTracker(*n)
	rec := &fsync.SnapshotRecorder{}
	sim, err := fsync.New(fsync.Config{
		Algorithm:   alg,
		Dynamics:    dynamics,
		Placements:  fsync.RandomPlacements(*n, *k, prng.NewSource(*seed)),
		Observers:   []fsync.Observer{vt, rec},
		RecordGraph: *viz > 0 || *save != "",
	})
	if err != nil {
		return err
	}
	sim.Run(*rounds)
	rep := vt.Report()

	if *save != "" {
		if err := saveGraph(*save, sim.RecordedGraph()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved realized evolving graph to %s\n", *save)
	}

	fmt.Fprintf(stdout, "algorithm   %s\n", alg.Name())
	fmt.Fprintf(stdout, "ring        n=%d, k=%d, dynamics=%s, seed=%d\n", *n, *k, *dyn, *seed)
	fmt.Fprintf(stdout, "horizon     %d rounds\n", rep.Horizon)
	fmt.Fprintf(stdout, "covered     %d/%d nodes (cover time %d)\n", rep.Covered, rep.Nodes, rep.CoverTime)
	fmt.Fprintf(stdout, "max gap     %d rounds (node %d)\n", rep.MaxGap, rep.WorstNode)
	fmt.Fprintf(stdout, "visits/node %v\n", rep.Visits)
	if rep.PerpetuallyExplored(rep.Horizon / 2) {
		fmt.Fprintln(stdout, "verdict     PERPETUAL EXPLORATION (finite-horizon criterion)")
	} else {
		fmt.Fprintln(stdout, "verdict     exploration NOT sustained on this horizon")
	}

	if *viz > 0 {
		snaps := make([]fsync.Snapshot, rec.Len())
		for t := range snaps {
			snaps[t] = rec.At(t)
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Header(*n))
		fmt.Fprint(stdout, trace.SpaceTimeString(sim.RecordedGraph(), snaps, 0, *viz))
	}
	return nil
}

func buildDynamics(name string, n int, p float64, edge, from, tint, period, budget int, seed uint64) (pef.Dynamics, error) {
	switch name {
	case "static":
		return pef.Static(n), nil
	case "bernoulli":
		return pef.Bernoulli(n, p, seed), nil
	case "eventual-missing":
		return pef.EventualMissing(n, edge, from, seed), nil
	case "t-interval":
		return pef.TInterval(n, tint, seed), nil
	case "roving":
		return pef.Roving(n, period), nil
	case "chain":
		return pef.Chain(n, edge, seed), nil
	case "block-pointed":
		return pef.BlockPointed(n, budget), nil
	default:
		return nil, fmt.Errorf("unknown dynamics %q", name)
	}
}

// saveGraph writes a recorded evolving graph as JSON.
func saveGraph(path string, rec *dyngraph.Recorded) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding graph: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// loadGraph reads a recorded evolving graph from JSON.
func loadGraph(path string) (*dyngraph.Recorded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var rec dyngraph.Recorded
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rec, nil
}
