// Command pefbenchdiff compares two BENCH_*.json trajectories (as emitted
// by pefexperiments -json) and prints a regression/improvement table: the
// per-experiment pass rates, the scalar aggregates (cover times, revisit
// gaps, …), and — when both files carry -timings data — the per-experiment
// wall times. It is the trend-diff half of the bench-trajectory loop: CI
// regenerates the current trajectory and diffs it against the committed
// previous one.
//
// When both arguments are scenario-campaign documents (pefscenarios -json)
// instead, the diff switches to campaign mode: it compares the oracle OK
// rates, the margin distributions (coverSlack, gapHeadroom,
// confineHeadroom — how much slack each family kept against its
// predicate; a "tighter" flag warns of drift toward the boundary before
// any verdict flips), and — when both documents carry -timings wall
// times — the campaign wall time, under the same gate. CI uses this to
// require the lockstep engine's campaign to run no slower than the
// scalar engine's.
//
// When both arguments are search boundary reports (pefsearch -json)
// instead, the diff switches to boundary mode: per (family, metric), the
// tightest margin either run observed, with "tightened" flagging cells
// where the new search pushed closer to the theorem boundary and any
// newly found violations called out. Like the campaign margin section,
// boundary mode is diagnostic and never joins the regression gate.
//
//	pefbenchdiff BENCH_0004.json BENCH_0005.json
//	pefbenchdiff -fail-on-regress 0.0 OLD.json NEW.json
//	pefbenchdiff -fail-on-regress 0.0 campaign_scalar.json campaign_lockstep.json
//	pefbenchdiff boundary_old.json boundary_new.json
//
// Flags:
//
//	-fail-on-regress f   exit non-zero when any experiment's pass rate (or
//	                     the campaign's OK rate) drops by more than f (a
//	                     fraction in [0, 1]), or when wall times are present
//	                     in both files and an experiment (or the campaign)
//	                     slows down by more than fraction f. Negative values
//	                     (the default) disable the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pef/internal/metrics"
	"pef/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pefbenchdiff:", err)
		os.Exit(1)
	}
}

// benchJob mirrors the per-job fields pefbenchdiff consumes from a
// pefexperiments -json document.
type benchJob struct {
	ID     string  `json:"id"`
	Seed   uint64  `json:"seed"`
	Pass   bool    `json:"pass"`
	Millis float64 `json:"millis"`
}

// benchFile mirrors the top-level trajectory document.
type benchFile struct {
	Seeds    []uint64            `json:"seeds"`
	Quick    bool                `json:"quick"`
	Jobs     []benchJob          `json:"jobs"`
	Passes   int                 `json:"passes"`
	Total    int                 `json:"total"`
	PassRate float64             `json:"passRate"`
	Scalars  []metrics.ScalarRow `json:"scalars"`
}

// expStats is one experiment's aggregate within a trajectory.
type expStats struct {
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

// aggregate folds a trajectory's job list per experiment, preserving
// first-seen experiment order.
func aggregate(f benchFile) (order []string, stats map[string]expStats) {
	stats = make(map[string]expStats)
	for _, j := range f.Jobs {
		s, ok := stats[j.ID]
		if !ok {
			order = append(order, j.ID)
		}
		s.jobs++
		if j.Pass {
			s.passes++
		}
		s.millis += j.Millis
		stats[j.ID] = s
	}
	return order, stats
}

// campaignFile mirrors the fields pefbenchdiff consumes from a
// pefscenarios -json campaign document.
type campaignFile struct {
	Version   int      `json:"version"`
	Generator string   `json:"generator"`
	Count     int      `json:"count"`
	Seeds     []uint64 `json:"seeds"`
	Total     int      `json:"total"`
	OK        int      `json:"ok"`
	OKRate    float64  `json:"okRate"`
	// Millis is the campaign wall time; zero unless the document was
	// captured with -timings.
	Millis int64 `json:"millis"`
	// Scalars carries the per-family scalar distributions, including the
	// oracle's margin instrumentation (coverSlack, gapHeadroom,
	// confineHeadroom) — how close each family ran to its predicate's
	// edge.
	Scalars []metrics.ScalarRow `json:"scalars"`
}

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
	bench      benchFile
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

// mergedOrder returns oldOrder followed by the experiments that only the
// new trajectory has, so rows render in a stable, reviewable order.
func mergedOrder(oldOrder, newOrder []string, oldStats map[string]expStats) []string {
	out := append([]string(nil), oldOrder...)
	for _, id := range newOrder {
		if _, ok := oldStats[id]; !ok {
			out = append(out, id)
		}
	}
	return out
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pefbenchdiff", flag.ContinueOnError)
	failOn := fs.Float64("fail-on-regress", -1,
		"fail when a pass rate drops, or a wall time grows, by more than this fraction (negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: pefbenchdiff [-fail-on-regress f] OLD.json NEW.json")
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

	oldOrder, oldStats := aggregate(oldF)
	newOrder, newStats := aggregate(newF)
	order := mergedOrder(oldOrder, newOrder, oldStats)

	fmt.Fprintf(stdout, "# Bench trajectory diff: %s → %s\n\n", fs.Arg(0), fs.Arg(1))
	fmt.Fprintf(stdout, "old: %d jobs over %d seeds (quick=%t), pass rate %s\n",
		oldF.Total, len(oldF.Seeds), oldF.Quick, pct(oldF.PassRate))
	fmt.Fprintf(stdout, "new: %d jobs over %d seeds (quick=%t), pass rate %s\n",
		newF.Total, len(newF.Seeds), newF.Quick, pct(newF.PassRate))

	var regressions []string

	// Per-experiment pass rates.
	fmt.Fprintf(stdout, "\n## Pass rates\n\n")
	pt := metrics.NewTable("experiment", "old", "new", "delta", "flag")
	for _, id := range order {
		o, hasOld := oldStats[id]
		n, hasNew := newStats[id]
		switch {
		case !hasNew:
			pt.AddRow(id, pct(o.passRate()), "-", "-", "gone")
		case !hasOld:
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
		for _, id := range order {
			o, hasOld := oldStats[id]
			n, hasNew := newStats[id]
			if !hasOld || !hasNew || o.millis == 0 {
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
		type key struct{ id, metric string }
		oldScalars := make(map[key]metrics.ScalarRow, len(oldF.Scalars))
		for _, r := range oldF.Scalars {
			oldScalars[key{r.ID, r.Metric}] = r
		}
		newScalars := make(map[key]metrics.ScalarRow, len(newF.Scalars))
		for _, r := range newF.Scalars {
			newScalars[key{r.ID, r.Metric}] = r
		}
		st := metrics.NewTable("experiment", "metric", "old mean", "new mean", "delta")
		emit := func(r metrics.ScalarRow) {
			k := key{r.ID, r.Metric}
			o, hasOld := oldScalars[k]
			n, hasNew := newScalars[k]
			switch {
			case !hasNew:
				st.AddRow(r.ID, r.Metric, fmt.Sprintf("%.1f", o.Mean), "-", "gone")
			case !hasOld:
				st.AddRow(r.ID, r.Metric, "-", fmt.Sprintf("%.1f", n.Mean), "new")
			default:
				st.AddRow(r.ID, r.Metric, fmt.Sprintf("%.1f", o.Mean), fmt.Sprintf("%.1f", n.Mean),
					fmt.Sprintf("%+.1f", n.Mean-o.Mean))
			}
		}
		seen := make(map[key]bool)
		for _, r := range oldF.Scalars {
			seen[key{r.ID, r.Metric}] = true
			emit(r)
		}
		for _, r := range newF.Scalars {
			if !seen[key{r.ID, r.Metric}] {
				emit(r)
			}
		}
		if err := st.Render(stdout); err != nil {
			return err
		}
	}

	if len(regressions) > 0 {
		fmt.Fprintf(stdout, "\n---\n%d regression(s) beyond threshold %.2f:\n", len(regressions), *failOn)
		for _, r := range regressions {
			fmt.Fprintf(stdout, "- %s\n", r)
		}
		return fmt.Errorf("%d regression(s) beyond threshold %v", len(regressions), *failOn)
	}
	fmt.Fprintf(stdout, "\n---\nno regressions%s.\n", gateSuffix(*failOn))
	return nil
}

// oldHasTimings reports whether any experiment recorded a wall time.
func oldHasTimings(stats map[string]expStats) bool {
	for _, s := range stats {
		if s.millis > 0 && !math.IsNaN(s.millis) {
			return true
		}
	}
	return false
}

// campaignDiff renders the campaign-mode comparison: OK rates always,
// wall times when both documents carry them, both under the regression
// gate. The two campaigns need not share a generator — the lockstep
// wall-time gate diffs the same campaign under two engines — but mismatched
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
	if len(regressions) > 0 {
		fmt.Fprintf(stdout, "\n---\n%d regression(s) beyond threshold %.2f:\n", len(regressions), failOn)
		for _, r := range regressions {
			fmt.Fprintf(stdout, "- %s\n", r)
		}
		return fmt.Errorf("%d regression(s) beyond threshold %v", len(regressions), failOn)
	}
	fmt.Fprintf(stdout, "\n---\nno regressions%s.\n", gateSuffix(failOn))
	return nil
}

// marginDiff renders the margin-distribution comparison of campaign
// mode: per (family, margin metric), the old and new summary — how much
// slack the sweep kept against the paper's predicate bounds. Margins are
// diagnostic (a shrinking mean flags drift toward the predicate boundary
// before any verdict flips), so this section never joins the regression
// gate; the OK rate does the gating.
func marginDiff(stdout io.Writer, oldC, newC campaignFile) error {
	type key struct{ id, metric string }
	filter := func(rows []metrics.ScalarRow) (order []key, byKey map[key]metrics.ScalarRow) {
		byKey = make(map[key]metrics.ScalarRow)
		for _, r := range rows {
			if !marginMetrics[r.Metric] {
				continue
			}
			k := key{r.ID, r.Metric}
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = r
		}
		return order, byKey
	}
	oldOrder, oldRows := filter(oldC.Scalars)
	newOrder, newRows := filter(newC.Scalars)
	if len(oldRows) == 0 && len(newRows) == 0 {
		return nil
	}
	order := append([]key(nil), oldOrder...)
	for _, k := range newOrder {
		if _, ok := oldRows[k]; !ok {
			order = append(order, k)
		}
	}

	fmt.Fprintf(stdout, "\n## Predicate margins (min / mean / median / max)\n\n")
	mt := metrics.NewTable("family", "margin", "old", "new", "mean delta", "flag")
	summary := func(r metrics.ScalarRow) string {
		return fmt.Sprintf("%d / %.1f / %.1f / %d (n=%d)", r.Min, r.Mean, r.Median, r.Max, r.Count)
	}
	for _, k := range order {
		o, hasOld := oldRows[k]
		n, hasNew := newRows[k]
		switch {
		case !hasNew:
			mt.AddRow(k.id, k.metric, summary(o), "-", "-", "gone")
		case !hasOld:
			mt.AddRow(k.id, k.metric, "-", summary(n), "-", "new")
		default:
			delta := n.Mean - o.Mean
			flag := "="
			if delta < 0 {
				flag = "tighter"
			} else if delta > 0 {
				flag = "wider"
			}
			mt.AddRow(k.id, k.metric, summary(o), summary(n), fmt.Sprintf("%+.1f", delta), flag)
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

	type key struct{ family, metric string }
	index := func(rows []search.BoundaryRow) (order []key, byKey map[key]search.BoundaryRow) {
		byKey = make(map[key]search.BoundaryRow, len(rows))
		for _, r := range rows {
			k := key{r.Family, r.Metric}
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = r
		}
		return order, byKey
	}
	oldOrder, oldRows := index(oldR.Rows)
	newOrder, newRows := index(newR.Rows)
	order := append([]key(nil), oldOrder...)
	for _, k := range newOrder {
		if _, ok := oldRows[k]; !ok {
			order = append(order, k)
		}
	}

	tightened := 0
	fmt.Fprintf(stdout, "\n## Tightest observed margins (‰ of bound)\n\n")
	bt := metrics.NewTable("family", "metric", "old rel(‰)", "new rel(‰)", "delta", "flag")
	for _, k := range order {
		o, hasOld := oldRows[k]
		n, hasNew := newRows[k]
		switch {
		case !hasNew:
			bt.AddRow(k.family, k.metric, o.RelMin, "-", "-", "gone")
		case !hasOld:
			bt.AddRow(k.family, k.metric, "-", n.RelMin, "-", "new")
		default:
			delta := n.RelMin - o.RelMin
			flag := "="
			if delta < 0 {
				flag = "tightened"
				tightened++
			} else if delta > 0 {
				flag = "widened"
			}
			bt.AddRow(k.family, k.metric, o.RelMin, n.RelMin, fmt.Sprintf("%+d", delta), flag)
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

// gateSuffix annotates the verdict with the active gate, if any.
func gateSuffix(failOn float64) string {
	if failOn < 0 {
		return " (gate disabled)"
	}
	return fmt.Sprintf(" beyond threshold %.2f", failOn)
}
