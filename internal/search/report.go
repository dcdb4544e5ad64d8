package search

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pef/internal/metrics"
)

// ReportKind tags the boundary-report JSON document so pef benchdiff can
// tell it apart from bench jobs and campaign documents.
const ReportKind = "searchBoundary"

// Result is the final state of a search run.
type Result struct {
	// Seed and Generations identify the run (Generations counts the
	// *completed* ones — fewer than configured when halted).
	Seed        uint64
	Generations int
	// Halted reports a clean OnGeneration halt (ErrHalted).
	Halted bool
	// Samples, Mutations and BanditPicks summarize how the budget was
	// spent.
	Samples, Mutations, BanditPicks int
	// Threshold is the frozen warmup bottom-quartile rel margin;
	// PostWarmup and Bottom are the concentration counters measured
	// against it.
	Threshold          int
	PostWarmup, Bottom int
	// Arms is the final bandit state, Corpus the near-violation corpus
	// (ascending margin), Boundary the tightest-margin cells, Violations
	// the found violations with their minimized reproducers.
	Arms       []ArmState
	Corpus     []CorpusEntry
	Boundary   []BoundaryRow
	Violations []Violation
}

// result snapshots the searcher into its public Result, with boundary
// rows in canonical (family, metric) order.
func (sr *searcher) result() *Result {
	rows := append([]BoundaryRow(nil), sr.rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Family != rows[j].Family {
			return rows[i].Family < rows[j].Family
		}
		return rows[i].Metric < rows[j].Metric
	})
	return &Result{
		Seed:        sr.cfg.Seed,
		Generations: sr.gen,
		Halted:      sr.halted,
		Samples:     sr.samples,
		Mutations:   sr.mutations,
		BanditPicks: sr.banditPicks,
		Threshold:   sr.threshold,
		PostWarmup:  sr.postWarmup,
		Bottom:      sr.bottom,
		Arms:        append([]ArmState(nil), sr.arms...),
		Corpus:      append([]CorpusEntry(nil), sr.corpus...),
		Boundary:    rows,
		Violations:  append([]Violation(nil), sr.viols...),
	}
}

// BoundaryReport is the versioned boundary-report document: the tightest
// observed margin per family × metric plus the run's steering summary.
// It is what pef benchdiff's search mode diffs run over run.
type BoundaryReport struct {
	Kind        string        `json:"kind"`
	Version     int           `json:"version"`
	Seed        uint64        `json:"seed"`
	Generations int           `json:"generations"`
	Samples     int           `json:"samples"`
	Mutations   int           `json:"mutations,omitempty"`
	Halted      bool          `json:"halted,omitempty"`
	Threshold   int           `json:"threshold,omitempty"`
	PostWarmup  int           `json:"postWarmup,omitempty"`
	Bottom      int           `json:"bottom,omitempty"`
	Rows        []BoundaryRow `json:"rows"`
	Violations  []Violation   `json:"violations,omitempty"`
}

// Report builds the result's boundary-report document.
func (r *Result) Report() BoundaryReport {
	return BoundaryReport{
		Kind:        ReportKind,
		Version:     CheckpointVersion,
		Seed:        r.Seed,
		Generations: r.Generations,
		Samples:     r.Samples,
		Mutations:   r.Mutations,
		Halted:      r.Halted,
		Threshold:   r.Threshold,
		PostWarmup:  r.PostWarmup,
		Bottom:      r.Bottom,
		Rows:        r.Boundary,
		Violations:  r.Violations,
	}
}

// WriteJSON writes the boundary-report document as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeReport parses a boundary-report document, rejecting documents of
// another kind.
func DecodeReport(data []byte) (*BoundaryReport, error) {
	var r BoundaryReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("search: decode boundary report: %w", err)
	}
	if r.Kind != ReportKind {
		return nil, fmt.Errorf("search: document kind %q is not a boundary report (%q)", r.Kind, ReportKind)
	}
	return &r, nil
}

// WriteReport writes the human-readable boundary report: the run
// summary, the tightest-margin table, the bandit's budget allocation,
// and each violation with its minimized reproducer.
func (r *Result) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "search: seed %d, %d generations, %d samples (%d mutated)\n",
		r.Seed, r.Generations, r.Samples, r.Mutations); err != nil {
		return err
	}
	if r.PostWarmup > 0 {
		if _, err := fmt.Fprintf(w, "concentration: %d/%d post-warmup samples at or below the warmup bottom-quartile margin (%d‰)\n",
			r.Bottom, r.PostWarmup, r.Threshold); err != nil {
			return err
		}
	}
	if r.Halted {
		if _, err := fmt.Fprintln(w, "halted: run stopped cleanly before its configured generations"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nboundary (tightest observed margin per family × metric):\n"); err != nil {
		return err
	}
	bt := metrics.NewTable("family", "metric", "min", "rel(‰)", "samples", "tightest spec")
	for _, row := range r.Boundary {
		bt.AddRow(row.Family, row.Metric, row.Min, row.RelMin, row.Count, row.SpecID)
	}
	if err := bt.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nbandit arms:\n"); err != nil {
		return err
	}
	at := metrics.NewTable("family", "pulls", "reward(‰)")
	for _, a := range r.Arms {
		mean := int64(0)
		if a.Pulls > 0 {
			mean = a.RewardMilli / int64(a.Pulls)
		}
		at.AddRow(a.Family, a.Pulls, mean)
	}
	if err := at.Render(w); err != nil {
		return err
	}
	if len(r.Violations) == 0 {
		_, err := fmt.Fprintf(w, "\nviolations: none (corpus holds %d near-violation specs)\n", len(r.Corpus))
		return err
	}
	if _, err := fmt.Fprintf(w, "\nviolations: %d\n", len(r.Violations)); err != nil {
		return err
	}
	for _, v := range r.Violations {
		if _, err := fmt.Fprintf(w, "  %s\n", v.ID); err != nil {
			return err
		}
		switch {
		case v.Err != "":
			if _, err := fmt.Fprintf(w, "    error: %s\n", v.Err); err != nil {
				return err
			}
		case v.Violation != "":
			if _, err := fmt.Fprintf(w, "    %s\n", v.Violation); err != nil {
				return err
			}
		}
		if v.Minimized != nil {
			if _, err := fmt.Fprintf(w, "    minimal reproducer: %s\n", v.MinimizedID); err != nil {
				return err
			}
			if enc, err := v.Minimized.Encode(); err == nil {
				if _, err := fmt.Fprintf(w, "    %s\n", enc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
