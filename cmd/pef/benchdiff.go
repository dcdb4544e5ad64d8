package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pef/internal/metrics"
	"pef/internal/scenario"
	"pef/internal/search"
)

// joined is one key of an old/new join, with the row each side holds.
type joined[R any] struct {
	old, new       R
	hasOld, hasNew bool
}

// either returns the row of whichever side holds one, preferring old.
func (j joined[R]) either() R {
	if j.hasOld {
		return j.old
	}
	return j.new
}

// join pairs the old and new rows by key, in first-seen old order
// followed by the keys only the new side has, so rows render in a stable,
// reviewable order. A key repeated on one side keeps its last row.
func join[R any, K comparable](oldRows, newRows []R, key func(R) K) []joined[R] {
	var out []joined[R]
	index := make(map[K]int)
	for side, rows := range [2][]R{oldRows, newRows} {
		for _, r := range rows {
			i, ok := index[key(r)]
			if !ok {
				i = len(out)
				index[key(r)] = i
				out = append(out, joined[R]{})
			}
			if side == 0 {
				out[i].old, out[i].hasOld = r, true
			} else {
				out[i].new, out[i].hasNew = r, true
			}
		}
	}
	return out
}

// scalarKey joins scalar rows on (family, metric).
func scalarKey(r metrics.ScalarRow) [2]string { return [2]string{r.ID, r.Metric} }

// marginMetrics names the oracle's margin distributions: the slack each
// verdict had against its predicate. Shrinking margins flag a sweep
// drifting toward the predicate boundary before any verdict flips.
var marginMetrics = map[string]bool{
	"coverSlack":      true,
	"gapHeadroom":     true,
	"confineHeadroom": true,
}

// document is one parsed input file: a search boundary report when
// boundary is non-nil, a scenario-campaign document otherwise.
type document struct {
	campaign scenario.CampaignDocument
	boundary *search.BoundaryReport
}

// load parses one input file: a "searchBoundary" kind tag marks a
// boundary report, and anything else must decode as a campaign document.
func load(path string) (document, error) {
	var d document
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &kind); err == nil && kind.Kind == search.ReportKind {
		if d.boundary, err = search.DecodeReport(data); err != nil {
			return d, fmt.Errorf("parsing %s: %w", path, err)
		}
		return d, nil
	}
	if d.campaign, err = scenario.DecodeCampaignDocument(data); err != nil {
		return d, fmt.Errorf("%s is neither a boundary report nor a campaign document: %w", path, err)
	}
	return d, nil
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// runBenchdiff compares two scenario-campaign documents (pef scenarios
// -json) and prints their oracle OK rates and margin distributions
// (coverSlack, gapHeadroom, confineHeadroom — how much slack each family
// kept against its predicate; a "tighter" flag warns of drift toward the
// boundary before any verdict flips). Only the OK rate joins the
// regression gate. The two campaigns need not share a generator or a
// size.
//
// When both arguments are search boundary reports (pef search -json)
// instead, the diff switches to boundary mode: per (family, metric), the
// tightest margin either run observed, with "tightened" flagging cells
// where the new search pushed closer to the theorem boundary and any
// newly found violations called out. Like the campaign margin section,
// boundary mode is diagnostic and never joins the regression gate.
//
// Neither document carries a wall clock; timing travels in the
// telemetry counters and in pefbench.
//
//	pef benchdiff campaign_old.json campaign_new.json
//	pef benchdiff -fail-on-regress 0.0 campaign_old.json campaign_new.json
//	pef benchdiff boundary_old.json boundary_new.json
//
// Flags:
//
//	-fail-on-regress f   exit non-zero when the campaign's OK rate drops
//	                     by more than f (a fraction in [0, 1]). Negative
//	                     values (the default) disable the gate.
func runBenchdiff(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("benchdiff", stderr)
	failOn := fs.Float64("fail-on-regress", -1,
		"fail when the OK rate drops by more than this fraction (negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: pef benchdiff [-fail-on-regress f] OLD.json NEW.json")
	}
	oldD, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newD, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	if (oldD.boundary == nil) != (newD.boundary == nil) {
		return fmt.Errorf("cannot diff documents of different kinds (campaign, boundary report)")
	}
	if oldD.boundary != nil {
		return boundaryDiff(stdout, fs.Arg(0), fs.Arg(1), oldD.boundary, newD.boundary)
	}
	return campaignDiff(stdout, fs.Arg(0), fs.Arg(1), oldD.campaign, newD.campaign, *failOn)
}

// campaignDiff renders the campaign-mode comparison: the OK rates, under
// the regression gate, and the margin distributions.
func campaignDiff(stdout io.Writer, oldPath, newPath string, oldC, newC scenario.CampaignDocument, failOn float64) error {
	fmt.Fprintf(stdout, "# Campaign diff: %s → %s\n\n", oldPath, newPath)
	ct := metrics.NewTable("campaign", "generator", "scenarios", "ok", "okRate")
	ct.AddRow("old", oldC.Generator, oldC.Total, oldC.OK, pct(oldC.OKRate))
	ct.AddRow("new", newC.Generator, newC.Total, newC.OK, pct(newC.OKRate))
	if err := ct.Render(stdout); err != nil {
		return err
	}

	var regressions []string
	if delta := newC.OKRate - oldC.OKRate; failOn >= 0 && -delta > failOn {
		regressions = append(regressions,
			fmt.Sprintf("OK rate %s → %s", pct(oldC.OKRate), pct(newC.OKRate)))
	}
	if err := marginDiff(stdout, oldC, newC); err != nil {
		return err
	}
	return verdict(stdout, regressions, failOn)
}

// marginDiff renders the margin-distribution comparison of campaign
// mode: per (family, margin metric), the old and new summary — how much
// slack the sweep kept against the paper's predicate bounds. Margins are
// diagnostic (a shrinking mean flags drift toward the predicate boundary
// before any verdict flips), so this section never joins the regression
// gate; the OK rate does the gating.
func marginDiff(stdout io.Writer, oldC, newC scenario.CampaignDocument) error {
	var rows []joined[metrics.ScalarRow]
	for _, j := range join(oldC.Scalars, newC.Scalars, scalarKey) {
		if marginMetrics[j.either().Metric] {
			rows = append(rows, j)
		}
	}
	if len(rows) == 0 {
		return nil
	}

	fmt.Fprintf(stdout, "\n## Predicate margins (min / mean / median / max)\n\n")
	mt := metrics.NewTable("family", "margin", "old", "new", "mean delta", "flag")
	summary := func(r metrics.ScalarRow) string {
		return fmt.Sprintf("%d / %.1f / %.1f / %d (n=%d)", r.Min, r.Mean, r.Median, r.Max, r.Count)
	}
	for _, j := range rows {
		k, o, n := j.either(), j.old, j.new
		switch {
		case !j.hasNew:
			mt.AddRow(k.ID, k.Metric, summary(o), "-", "-", "gone")
		case !j.hasOld:
			mt.AddRow(k.ID, k.Metric, "-", summary(n), "-", "new")
		default:
			delta := n.Mean - o.Mean
			flag := "="
			if delta < 0 {
				flag = "tighter"
			} else if delta > 0 {
				flag = "wider"
			}
			mt.AddRow(k.ID, k.Metric, summary(o), summary(n), fmt.Sprintf("%+.1f", delta), flag)
		}
	}
	return mt.Render(stdout)
}

// boundaryDiff renders the search-boundary comparison: per (family,
// metric), the tightest margin either run observed. "tightened" flags
// cells where the new search pushed closer to the theorem boundary —
// the searcher doing its job — and newly found violations are called
// out. Boundary runs usually differ in seed or budget, so like the
// campaign margin section this mode is diagnostic and never joins the
// -fail-on-regress gate.
func boundaryDiff(stdout io.Writer, oldPath, newPath string, oldR, newR *search.BoundaryReport) error {
	fmt.Fprintf(stdout, "# Boundary report diff: %s → %s\n\n", oldPath, newPath)
	st := metrics.NewTable("run", "seed", "generations", "samples", "violations")
	st.AddRow("old", oldR.Seed, oldR.Generations, oldR.Samples, len(oldR.Violations))
	st.AddRow("new", newR.Seed, newR.Generations, newR.Samples, len(newR.Violations))
	if err := st.Render(stdout); err != nil {
		return err
	}

	tightened := 0
	fmt.Fprintf(stdout, "\n## Tightest observed margins (‰ of bound)\n\n")
	bt := metrics.NewTable("family", "metric", "old rel(‰)", "new rel(‰)", "delta", "flag")
	rows := join(oldR.Rows, newR.Rows, func(r search.BoundaryRow) [2]string { return [2]string{r.Family, r.Metric} })
	for _, j := range rows {
		k, o, n := j.either(), j.old, j.new
		switch {
		case !j.hasNew:
			bt.AddRow(k.Family, k.Metric, o.RelMin, "-", "-", "gone")
		case !j.hasOld:
			bt.AddRow(k.Family, k.Metric, "-", n.RelMin, "-", "new")
		default:
			delta := n.RelMin - o.RelMin
			flag := "="
			if delta < 0 {
				flag = "tightened"
				tightened++
			} else if delta > 0 {
				flag = "widened"
			}
			bt.AddRow(k.Family, k.Metric, o.RelMin, n.RelMin, fmt.Sprintf("%+d", delta), flag)
		}
	}
	if err := bt.Render(stdout); err != nil {
		return err
	}
	if tightened > 0 {
		fmt.Fprintf(stdout, "\n%d cell(s) tightened toward the theorem boundary.\n", tightened)
	}

	oldViol := make(map[string]bool, len(oldR.Violations))
	for _, v := range oldR.Violations {
		oldViol[v.ID] = true
	}
	fresh := 0
	for _, v := range newR.Violations {
		if !oldViol[v.ID] {
			if fresh == 0 {
				fmt.Fprintf(stdout, "\n## New violations\n\n")
			}
			fresh++
			fmt.Fprintf(stdout, "- %s", v.ID)
			if v.MinimizedID != "" {
				fmt.Fprintf(stdout, " (minimal reproducer: %s)", v.MinimizedID)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "\n---\nboundary mode is diagnostic: margins never join the regression gate.\n")
	return nil
}

// verdict closes a gated diff: the regressions beyond the threshold,
// which fail the process, or the all-clear with the active gate.
func verdict(stdout io.Writer, regressions []string, failOn float64) error {
	if len(regressions) > 0 {
		fmt.Fprintf(stdout, "\n---\n%d regression(s) beyond threshold %.2f:\n", len(regressions), failOn)
		for _, r := range regressions {
			fmt.Fprintf(stdout, "- %s\n", r)
		}
		return fmt.Errorf("%d regression(s) beyond threshold %v", len(regressions), failOn)
	}
	if failOn < 0 {
		fmt.Fprintf(stdout, "\n---\nno regressions (gate disabled).\n")
	} else {
		fmt.Fprintf(stdout, "\n---\nno regressions beyond threshold %.2f.\n", failOn)
	}
	return nil
}
