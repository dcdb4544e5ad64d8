package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"pef/internal/metrics"
	"pef/internal/search"
)

// expStats is one experiment's aggregate within a trajectory.
type expStats struct {
	id     string
	jobs   int
	passes int
	millis float64 // summed wall time; 0 means "no timings recorded"
}

func (e expStats) passRate() float64 {
	if e.jobs == 0 {
		return 0
	}
	return float64(e.passes) / float64(e.jobs)
}

// aggregate folds a trajectory's job list per experiment, in first-seen
// experiment order.
func aggregate(jobs []jsonJob) []expStats {
	var out []expStats
	index := make(map[string]int)
	for _, j := range jobs {
		i, ok := index[j.ID]
		if !ok {
			i = len(out)
			index[j.ID] = i
			out = append(out, expStats{id: j.ID})
		}
		s := &out[i]
		s.jobs++
		if j.Pass {
			s.passes++
		}
		s.millis += j.Millis
	}
	return out
}

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

// campaignFile mirrors the fields benchdiff consumes from a
// pef scenarios -json campaign document.
type campaignFile struct {
	Generator string  `json:"generator"`
	Total     int     `json:"total"`
	OK        int     `json:"ok"`
	OKRate    float64 `json:"okRate"`
	// Millis is the campaign wall time; zero unless the document was
	// captured with -timings.
	Millis int64 `json:"millis"`
	// Scalars carries the per-family scalar distributions, including the
	// oracle's margin instrumentation (coverSlack, gapHeadroom,
	// confineHeadroom) — how close each family ran to its predicate's
	// edge.
	Scalars []metrics.ScalarRow `json:"scalars"`
}

// scalarKey joins scalar rows on (experiment or family, metric).
func scalarKey(r metrics.ScalarRow) [2]string { return [2]string{r.ID, r.Metric} }

// marginMetrics names the oracle's margin distributions: the slack each
// verdict had against its predicate. Shrinking margins flag a sweep
// drifting toward the predicate boundary before any verdict flips.
var marginMetrics = map[string]bool{
	"coverSlack":      true,
	"gapHeadroom":     true,
	"confineHeadroom": true,
}

// document is one parsed input file: an experiment trajectory (Jobs
// non-empty), a scenario-campaign document (isCamp), or a search
// boundary report (isBoundary).
type document struct {
	bench      jsonReport
	campaign   campaignFile
	boundary   *search.BoundaryReport
	isCamp     bool
	isBoundary bool
}

// load parses one input file, detecting its kind: a "searchBoundary"
// kind tag marks a boundary report, a jobs list marks an experiment
// trajectory, a generator name marks a campaign document.
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
		d.isBoundary = true
		return d, nil
	}
	if err := json.Unmarshal(data, &d.bench); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(d.bench.Jobs) > 0 {
		return d, nil
	}
	if err := json.Unmarshal(data, &d.campaign); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	if d.campaign.Generator != "" && d.campaign.Total > 0 {
		d.isCamp = true
		return d, nil
	}
	return d, fmt.Errorf("%s carries neither experiment jobs, a campaign, nor a boundary report", path)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// runBenchdiff compares two BENCH_*.json trajectories (as emitted by
// pef experiments -json) and prints a regression/improvement table: the
// per-experiment pass rates, the scalar aggregates (cover times, revisit
// gaps, …), and — when both files carry -timings data — the per-experiment
// wall times. It is the trend-diff half of the bench-trajectory loop: CI
// regenerates the current trajectory and diffs it against the committed
// previous one.
//
// When both arguments are scenario-campaign documents (pef scenarios -json)
// instead, the diff switches to campaign mode: it compares the oracle OK
// rates, the margin distributions (coverSlack, gapHeadroom,
// confineHeadroom — how much slack each family kept against its
// predicate; a "tighter" flag warns of drift toward the boundary before
// any verdict flips), and — when both documents carry -timings wall
// times — the campaign wall time, under the same gate, so a campaign
// captured at two commits can be held to run no slower.
//
// When both arguments are search boundary reports (pef search -json)
// instead, the diff switches to boundary mode: per (family, metric), the
// tightest margin either run observed, with "tightened" flagging cells
// where the new search pushed closer to the theorem boundary and any
// newly found violations called out. Like the campaign margin section,
// boundary mode is diagnostic and never joins the regression gate.
//
//	pef benchdiff BENCH_0004.json BENCH_0005.json
//	pef benchdiff -fail-on-regress 0.0 OLD.json NEW.json
//	pef benchdiff -fail-on-regress 0.0 campaign_old.json campaign_new.json
//	pef benchdiff boundary_old.json boundary_new.json
//
// Flags:
//
//	-fail-on-regress f   exit non-zero when any experiment's pass rate (or
//	                     the campaign's OK rate) drops by more than f (a
//	                     fraction in [0, 1]), or when wall times are present
//	                     in both files and an experiment (or the campaign)
//	                     slows down by more than fraction f. Negative values
//	                     (the default) disable the gate.
func runBenchdiff(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("benchdiff", stderr)
	failOn := fs.Float64("fail-on-regress", -1,
		"fail when a pass rate drops, or a wall time grows, by more than this fraction (negative disables)")
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
	if oldD.isCamp != newD.isCamp || oldD.isBoundary != newD.isBoundary {
		return fmt.Errorf("cannot diff documents of different kinds (trajectory, campaign, boundary report)")
	}
	if oldD.isBoundary {
		return boundaryDiff(stdout, fs.Arg(0), fs.Arg(1), oldD.boundary, newD.boundary)
	}
	if oldD.isCamp {
		return campaignDiff(stdout, fs.Arg(0), fs.Arg(1), oldD.campaign, newD.campaign, *failOn)
	}
	oldF, newF := oldD.bench, newD.bench

	oldStats, newStats := aggregate(oldF.Jobs), aggregate(newF.Jobs)
	rows := join(oldStats, newStats, func(s expStats) string { return s.id })

	fmt.Fprintf(stdout, "# Bench trajectory diff: %s → %s\n\n", fs.Arg(0), fs.Arg(1))
	fmt.Fprintf(stdout, "old: %d jobs over %d seeds (quick=%t), pass rate %s\n",
		oldF.Total, len(oldF.Seeds), oldF.Quick, pct(oldF.PassRate))
	fmt.Fprintf(stdout, "new: %d jobs over %d seeds (quick=%t), pass rate %s\n",
		newF.Total, len(newF.Seeds), newF.Quick, pct(newF.PassRate))

	var regressions []string

	// Per-experiment pass rates.
	fmt.Fprintf(stdout, "\n## Pass rates\n\n")
	pt := metrics.NewTable("experiment", "old", "new", "delta", "flag")
	for _, r := range rows {
		id, o, n := r.either().id, r.old, r.new
		switch {
		case !r.hasNew:
			pt.AddRow(id, pct(o.passRate()), "-", "-", "gone")
		case !r.hasOld:
			pt.AddRow(id, "-", pct(n.passRate()), "-", "new")
		default:
			delta := n.passRate() - o.passRate()
			flag := "="
			if delta < 0 {
				flag = "REGRESS"
				if *failOn >= 0 && -delta > *failOn {
					regressions = append(regressions,
						fmt.Sprintf("%s: pass rate %s → %s", id, pct(o.passRate()), pct(n.passRate())))
				}
			} else if delta > 0 {
				flag = "improve"
			}
			pt.AddRow(id, pct(o.passRate()), pct(n.passRate()), fmt.Sprintf("%+.1f%%", 100*delta), flag)
		}
	}
	if err := pt.Render(stdout); err != nil {
		return err
	}

	// Per-experiment wall times, when both trajectories carry timings.
	if oldHasTimings(oldStats) && oldHasTimings(newStats) {
		fmt.Fprintf(stdout, "\n## Wall time (ms per experiment, summed over seeds)\n\n")
		wt := metrics.NewTable("experiment", "old ms", "new ms", "ratio", "flag")
		for _, r := range rows {
			id, o, n := r.either().id, r.old, r.new
			if !r.hasOld || !r.hasNew || o.millis == 0 {
				continue
			}
			ratio := n.millis / o.millis
			flag := "="
			if ratio > 1.05 {
				flag = "slower"
			} else if ratio < 0.95 {
				flag = "faster"
			}
			// The gate is independent of the 5% display bands: any
			// threshold the flag sets is honored, even below 0.05.
			if *failOn >= 0 && ratio > 1+*failOn {
				flag = "REGRESS"
				regressions = append(regressions,
					fmt.Sprintf("%s: wall time %.0fms → %.0fms (%.2fx)", id, o.millis, n.millis, ratio))
			}
			wt.AddRow(id, fmt.Sprintf("%.0f", o.millis), fmt.Sprintf("%.0f", n.millis),
				fmt.Sprintf("%.2fx", ratio), flag)
		}
		if err := wt.Render(stdout); err != nil {
			return err
		}
	}

	// Scalar aggregates joined on (experiment, metric).
	if len(oldF.Scalars) > 0 || len(newF.Scalars) > 0 {
		fmt.Fprintf(stdout, "\n## Scalar aggregates (mean)\n\n")
		st := metrics.NewTable("experiment", "metric", "old mean", "new mean", "delta")
		for _, j := range join(oldF.Scalars, newF.Scalars, scalarKey) {
			r, o, n := j.either(), j.old, j.new
			switch {
			case !j.hasNew:
				st.AddRow(r.ID, r.Metric, fmt.Sprintf("%.1f", o.Mean), "-", "gone")
			case !j.hasOld:
				st.AddRow(r.ID, r.Metric, "-", fmt.Sprintf("%.1f", n.Mean), "new")
			default:
				st.AddRow(r.ID, r.Metric, fmt.Sprintf("%.1f", o.Mean), fmt.Sprintf("%.1f", n.Mean),
					fmt.Sprintf("%+.1f", n.Mean-o.Mean))
			}
		}
		if err := st.Render(stdout); err != nil {
			return err
		}
	}

	return verdict(stdout, regressions, *failOn)
}

// oldHasTimings reports whether any experiment recorded a wall time.
func oldHasTimings(stats []expStats) bool {
	for _, s := range stats {
		if s.millis > 0 && !math.IsNaN(s.millis) {
			return true
		}
	}
	return false
}

// campaignDiff renders the campaign-mode comparison: OK rates always,
// wall times when both documents carry them, both under the regression
// gate. The two campaigns need not share a generator, but mismatched
// scenario counts make the wall-time ratio meaningless, so they fail.
func campaignDiff(stdout io.Writer, oldPath, newPath string, oldC, newC campaignFile, failOn float64) error {
	fmt.Fprintf(stdout, "# Campaign diff: %s → %s\n\n", oldPath, newPath)
	ct := metrics.NewTable("campaign", "generator", "scenarios", "ok", "okRate", "wall ms")
	wall := func(ms int64) string {
		if ms == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", ms)
	}
	ct.AddRow("old", oldC.Generator, oldC.Total, oldC.OK, pct(oldC.OKRate), wall(oldC.Millis))
	ct.AddRow("new", newC.Generator, newC.Total, newC.OK, pct(newC.OKRate), wall(newC.Millis))
	if err := ct.Render(stdout); err != nil {
		return err
	}

	var regressions []string
	if oldC.Total != newC.Total {
		regressions = append(regressions,
			fmt.Sprintf("scenario counts differ: %d → %d (wall times not comparable)", oldC.Total, newC.Total))
	}
	if delta := newC.OKRate - oldC.OKRate; failOn >= 0 && -delta > failOn {
		regressions = append(regressions,
			fmt.Sprintf("OK rate %s → %s", pct(oldC.OKRate), pct(newC.OKRate)))
	}
	if oldC.Millis > 0 && newC.Millis > 0 {
		ratio := float64(newC.Millis) / float64(oldC.Millis)
		fmt.Fprintf(stdout, "\nwall time: %dms → %dms (%.2fx)\n", oldC.Millis, newC.Millis, ratio)
		if failOn >= 0 && ratio > 1+failOn {
			regressions = append(regressions,
				fmt.Sprintf("wall time %dms → %dms (%.2fx)", oldC.Millis, newC.Millis, ratio))
		}
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
func marginDiff(stdout io.Writer, oldC, newC campaignFile) error {
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
