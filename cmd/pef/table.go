package main

import (
	"context"
	"fmt"
	"io"

	"pef/internal/harness"
	"pef/internal/metrics"
)

// runTable regenerates Table 1 of the paper ("Overview of the results")
// empirically: for each (robots, ring size) regime it runs the
// corresponding possibility algorithm across the workload battery or the
// corresponding impossibility adversary across the algorithm suite, and
// prints the verdict next to the paper's claim.
func runTable(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("table", stderr)
	var (
		seed    = fs.Uint64("seed", 1, "experiment seed")
		quick   = fs.Bool("quick", false, "reduced horizons")
		details = fs.Bool("details", false, "print per-run detail tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rows := []struct {
		id      string
		robots  string
		size    string
		claim   string
		theorem string
	}{
		{"E-T1.R1", "3 and more", ">= 4 (n > k)", "Possible", "Theorem 3.1 (PEF_3+)"},
		{"E-T1.R2", "2", "> 3", "Impossible", "Theorem 4.1"},
		{"E-T1.R3", "2", "= 3", "Possible", "Theorem 4.2 (PEF_2)"},
		{"E-T1.R4", "1", "> 2", "Impossible", "Theorem 5.1"},
		{"E-T1.R5", "1", "= 2", "Possible", "Theorem 5.2 (PEF_1)"},
	}

	table := metrics.NewTable("Robots", "Ring size", "Paper", "Result", "Reproduced")
	cfg := harness.Config{Seed: *seed, Quick: *quick}
	var failures int
	for _, row := range rows {
		exp, ok := harness.Find(row.id, *quick)
		if !ok {
			return fmt.Errorf("missing experiment %s", row.id)
		}
		res, err := exp.Run(cfg)
		if err != nil {
			return err
		}
		mark := "yes"
		if !res.Pass {
			mark = "NO"
			failures++
		}
		table.AddRow(row.robots, row.size, row.claim, row.theorem, mark)
		if *details {
			if err := harness.WriteResult(stdout, res); err != nil {
				return err
			}
		}
	}

	fmt.Fprintln(stdout, "Table 1 — Overview of the results (empirical reproduction)")
	fmt.Fprintln(stdout)
	if err := table.Render(stdout); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d row(s) failed to reproduce", failures)
	}
	fmt.Fprintln(stdout, "\nAll five rows reproduce the paper's characterization.")
	return nil
}
