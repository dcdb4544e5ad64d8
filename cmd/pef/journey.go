package main

import (
	"context"
	"fmt"
	"io"

	"pef/internal/classes"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/metrics"
	"pef/internal/ring"
)

// runJourney analyzes the temporal structure of a dynamics class:
// foremost-arrival matrix, temporal diameter, recurrence bound, and the
// taxonomy classification of Casteigts et al. — the machinery behind the
// paper's connected-over-time assumption.
//
// Example:
//
//	pef journey -n 8 -dyn bernoulli -p 0.4 -horizon 400
func runJourney(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("journey", stderr)
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

	var g dyngraph.EvolvingGraph
	var err error
	switch {
	case *dyn != "periodic":
		g, err = buildGraph(*dyn, *n, *p, *edge, *from, *tint, *period, *seed)
	case *n < ring.MinSize || *period < 0:
		err = fmt.Errorf("periodic needs -n >= %d and -period >= 0, got -n %d -period %d", ring.MinSize, *n, *period)
	default:
		// Edge e is present at phase e mod (period+1) and at the last
		// phase of each period.
		patterns := make([][]bool, *n)
		for e := range patterns {
			pat := make([]bool, *period+1)
			pat[e%(*period+1)] = true
			pat[*period] = true
			patterns[e] = pat
		}
		g, err = dynamics.NewPeriodic(*n, patterns)
	}
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
