// Command pefjourney analyzes the temporal structure of a dynamics class:
// foremost-arrival matrix, temporal diameter, recurrence bound, and the
// taxonomy classification of Casteigts et al. — the machinery behind the
// paper's connected-over-time assumption.
//
// Example:
//
//	pefjourney -n 8 -dyn bernoulli -p 0.4 -horizon 400
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pef/internal/classes"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pefjourney:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pefjourney", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 8, "ring size")
		dyn     = fs.String("dyn", "bernoulli", "dynamics: static|bernoulli|eventual-missing|t-interval|roving|chain|periodic")
		p       = fs.Float64("p", 0.5, "edge presence probability (bernoulli)")
		edge    = fs.Int("edge", 0, "edge index (eventual-missing, chain)")
		from    = fs.Int("from", 32, "removal time (eventual-missing)")
		tint    = fs.Int("t", 4, "interval length (t-interval)")
		period  = fs.Int("period", 3, "rotation period (roving) / base period (periodic)")
		seed    = fs.Uint64("seed", 42, "random seed")
		horizon = fs.Int("horizon", 400, "analysis horizon")
		start   = fs.Int("start", 0, "journey departure instant")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := buildGraph(*dyn, *n, *p, *edge, *from, *tint, *period, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "dynamics %s on %d nodes, horizon %d, departures at t=%d\n\n", *dyn, *n, *horizon, *start)

	// Foremost arrival matrix.
	table := metrics.NewTable(append([]string{"src\\dst"}, nodeHeaders(*n)...)...)
	diameter := 0
	unreachable := 0
	for src := 0; src < *n; src++ {
		arr := dyngraph.ForemostArrivals(g, src, *start, *horizon)
		row := make([]interface{}, 0, *n+1)
		row = append(row, src)
		for dst, a := range arr {
			if a < 0 {
				row = append(row, "-")
				if dst != src {
					unreachable++
				}
				continue
			}
			lag := a - *start
			row = append(row, lag)
			if lag > diameter {
				diameter = lag
			}
		}
		table.AddRow(row...)
	}
	fmt.Fprintln(stdout, "foremost arrival lags (instants after departure):")
	if err := table.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ntemporal diameter (from t=%d): %d\n", *start, diameter)
	if unreachable > 0 {
		fmt.Fprintf(stdout, "UNREACHABLE pairs within horizon: %d — not connected-over-time here\n", unreachable)
	}

	if delta, ok := dyngraph.RecurrenceBound(g, *horizon); ok {
		fmt.Fprintf(stdout, "edge recurrence bound Δ: %d\n", delta)
	} else {
		fmt.Fprintln(stdout, "edge recurrence bound Δ: none (an edge looks eventually missing)")
	}

	m := classes.Classify(g, *horizon, 8, 4**period)
	fmt.Fprintf(stdout, "\ntaxonomy: always-connected=%t  T-interval=%d  period=%d  Δ=%d  recurrent=%t  connected-over-time=%t\n",
		m.AlwaysConnected, m.TInterval, m.Period, m.RecurrenceBound, m.Recurrent, m.ConnectedOverTime)
	if !m.RespectsHierarchy() {
		return fmt.Errorf("classification violates the taxonomy hierarchy: %+v", m)
	}
	return nil
}

func nodeHeaders(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", i)
	}
	return out
}

func buildGraph(name string, n int, p float64, edge, from, tint, period int, seed uint64) (dyngraph.EvolvingGraph, error) {
	switch name {
	case "static":
		return dyngraph.NewStatic(n), nil
	case "bernoulli":
		return dynamics.NewBernoulli(n, p, seed), nil
	case "eventual-missing":
		base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0x51DE)
		return dyngraph.NewEventualMissing(base, edge%n, from), nil
	case "t-interval":
		return dynamics.NewTInterval(n, tint, seed), nil
	case "roving":
		return dynamics.NewRovingMissing(n, period), nil
	case "chain":
		base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0xC4A1)
		return dynamics.NewChain(base, edge%n), nil
	case "periodic":
		patterns := make([][]bool, n)
		for e := range patterns {
			pat := make([]bool, period+1)
			pat[e%(period+1)] = true
			pat[period] = true
			patterns[e] = pat
		}
		return dynamics.NewPeriodic(n, patterns)
	default:
		return nil, fmt.Errorf("unknown dynamics %q", name)
	}
}
