// Command pefbench is the repository's end-to-end and per-layer benchmark.
// It times six workloads — the paper sweep, three generated campaigns,
// the campaign service under two clients, and the boundary search —
// through the packages' public functions, checks every output, and
// prints each metric by name and unit. See bench/README.md.
//
//	bash bench/run.sh --workload campaign-uniform --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, both passes
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// --trace 0 runs the untraced pass (end-to-end metrics), --trace 1 the
// traced pass (per-layer metrics, spans written under -trace-dir), and
// the default runs both. Each iteration runs in a fresh child process;
// a pass repeats iterations until --seconds have elapsed, and its timed
// metrics cover all of them, scaled by the host speed a calibration
// kernel measures between iterations (see calib.go). The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the line before it is the full record (stamp,
// sizes, sample counts, digest) that -compare reads.
// The exit code is non-zero when any correctness check fails.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// pinnedDigests holds the SHA-256 of each workload's reports at full
// sizes and seed 1. A report that changes bytes fails the benchmark.
//
//go:embed testdata/digests.json
var pinnedDigestsJSON []byte

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pefbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: shifts every generator seed")
	fs.IntVar(&o.seconds, "seconds", 15, "measure each pass for this many seconds (at least one iteration)")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced pass, 1: traced pass, -1: both")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced pass's span files")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the smoke test")
	cmp := fs.Bool("compare", false, "compare two files of records: -compare A.jsonl B.jsonl")
	benchJSON := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "pefbench: -compare takes two record files")
			return 2
		}
		ok, err := compare(stdout, *benchJSON, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "pefbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.seconds < 0 {
		fs.Usage()
		return 2
	}
	var selected []workload
	if o.workload == "all" {
		selected = workloads
	} else {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "pefbench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	if o.trace != 0 {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "pefbench:", err)
			return 2
		}
	}

	ctx := context.Background()
	final := result{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range selected {
		for _, traced := range passes(o.trace) {
			rec, err := measure(ctx, w, o, traced)
			if err != nil {
				fmt.Fprintf(stderr, "pefbench: %s: %v\n", w.name, err)
				return 2
			}
			printRecord(stdout, rec)
			final.Correct = final.Correct && rec.Correct
			final.Attempted += rec.Attempted
			final.Failed += rec.Failed
			for name, m := range rec.Metrics {
				if len(selected) > 1 {
					name = w.name + "." + name
				}
				final.Metrics[name] = metricOut{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	if err := json.NewEncoder(stdout).Encode(final); err != nil {
		fmt.Fprintln(stderr, "pefbench:", err)
		return 2
	}
	if !final.Correct {
		return 1
	}
	return 0
}

func passes(trace int) []bool {
	switch trace {
	case 0:
		return []bool{false}
	case 1:
		return []bool{true}
	}
	return []bool{false, true}
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValue is one metric of a record with the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// stamp identifies the host and build a record was measured on.
type stamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func newStamp(smoke bool) stamp {
	s := stamp{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown", Smoke: smoke}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty {
			s.Commit += "+dirty"
		}
	}
	return s
}

// record is one pass over one workload: what -compare reads.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Stamp      stamp  `json:"stamp"`
	Sizes      sizes  `json:"sizes"`
	Iterations int    `json:"iterations"`
	SetupRuns  int    `json:"setupRuns"`
	Correct    bool   `json:"correct"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	Digest     string `json:"digest"`
	// Metrics are the pass's reported metrics: end-to-end on the untraced
	// pass, per-layer on the traced one. Info holds further untraced
	// numbers printed for reading (error rate, per-endpoint latencies).
	Metrics map[string]metricValue `json:"metrics"`
	Info    map[string]metricValue `json:"info,omitempty"`
	// WallMs and CPUMs are each iteration's wall time and its child's CPU
	// time, for telling host noise from a slower program. CalibMs are the
	// calibration kernel's times around the iterations, and HostSlowdown is
	// their mean over calibRefMs: the factor the timed end-to-end metrics
	// were scaled by (raw throughput = throughput_sps / HostSlowdown).
	WallMs       []float64 `json:"wallMs"`
	CPUMs        []float64 `json:"cpuMs"`
	CalibMs      []float64 `json:"calibMs"`
	HostSlowdown float64   `json:"hostSlowdown"`
	Problems     []string  `json:"problems,omitempty"`
}

// setupProbes is how many extra children per pass only set up, so the
// set-up median rests on more samples than there are iterations.
func setupProbes(smoke bool) int {
	if smoke {
		return 1
	}
	return 15
}

// measure runs one pass of one workload.
//
// Timed end-to-end metrics cover the whole pass: throughput is all
// operations over all iteration time, latencies are percentiles of every
// iteration's requests pooled, and set-up time is a median. Each is then
// scaled by the host speed the calibration kernel measured during the
// pass (see calib.go). Memory is a median and is not scaled. Per-layer
// metrics come from the fastest traced iteration, so they decompose one
// real iteration.
func measure(ctx context.Context, w workload, o options, traced bool) (*record, error) {
	sz := w.full
	if o.smoke {
		sz = w.smoke
	}
	rec := &record{Workload: w.name, Seed: o.seed, Traced: traced, Stamp: newStamp(o.smoke), Sizes: sz, Metrics: map[string]metricValue{}}
	base := childSpec{Workload: w.name, Seed: o.seed, Sizes: sz}

	calibrate := func() error {
		ms, err := calibration(ctx)
		rec.CalibMs = append(rec.CalibMs, ms)
		return err
	}
	var setups []float64
	for i := 0; i < setupProbes(o.smoke); i++ {
		spec := base
		spec.SetupOnly = true
		r, err := spawn(ctx, spec)
		if err != nil {
			return nil, err
		}
		if r.res.Error != "" {
			rec.Problems = append(rec.Problems, "set-up: "+r.res.Error)
			continue
		}
		setups = append(setups, r.setupS)
	}
	rec.SetupRuns = len(setups)

	// The traced pass alternates untraced and traced iterations: the pair
	// prices the tracing and checks that both render the same report.
	var plain, spanned []childRun
	start := time.Now()
	for i := 0; ; i++ {
		spec := base
		if traced && i%2 == 1 {
			spec.TraceFile = filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d-iter%d.jsonl", w.name, o.seed, i))
		}
		if err := calibrate(); err != nil {
			return nil, err
		}
		r, err := spawn(ctx, spec)
		if err != nil {
			return nil, err
		}
		if spec.TraceFile != "" {
			spanned = append(spanned, r)
		} else {
			plain = append(plain, r)
		}
		if time.Since(start) >= time.Duration(o.seconds)*time.Second && (!traced || len(spanned) > 0) {
			break
		}
	}
	if err := calibrate(); err != nil {
		return nil, err
	}
	rec.HostSlowdown = mean(rec.CalibMs) / calibRefMs
	all := append(append([]childRun(nil), plain...), spanned...)
	rec.Iterations = len(all)
	check(rec, all, o)
	for _, r := range all {
		setups = append(setups, r.setupS)
		rec.WallMs = append(rec.WallMs, r.res.WallMs)
		rec.CPUMs = append(rec.CPUMs, r.cpuMs)
	}

	if !traced {
		var ops, wallMs float64
		var lat, rss []float64
		for _, r := range plain {
			ops += float64(r.res.Ops)
			wallMs += r.res.WallMs
			rss = append(rss, r.maxRSSMB)
			lat = append(lat, r.res.Latencies...)
		}
		put := func(name string, v float64, n int) {
			rec.Metrics[name] = metricValue{Value: finite(v), Unit: unitOf(name), N: n}
		}
		s := rec.HostSlowdown
		put("throughput_sps", ops/(wallMs/1e3)*s, len(plain))
		put("setup_s", median(setups)/s, len(setups))
		put("peak_rss_mb", median(rss), len(rss))
		put("latency_p50_ms", percentile(lat, 50)/s, len(lat))
		put("latency_p90_ms", percentile(lat, 90)/s, len(lat))
		rec.Info = map[string]metricValue{
			"error_rate": {Value: ratio(float64(rec.Failed), float64(rec.Attempted)), Unit: "ratio", N: rec.Attempted},
		}
		for name, m := range serveSplit(fastest(plain)) {
			rec.Info[name] = m
		}
		return rec, nil
	}

	top := fastest(spanned)
	for _, m := range layerMetrics {
		rec.Metrics[m.name] = metricValue{Value: finite(top.res.Layers[m.name]), Unit: m.unit, N: 1}
	}
	for name, m := range serveSplit(top) {
		rec.Metrics[name] = m
	}
	rec.Metrics["trace.overhead_ratio"] = metricValue{Value: finite(ratio(top.res.WallMs, fastest(plain).res.WallMs)), Unit: "ratio", N: len(all)}
	return rec, nil
}

// fastest returns the run with the shortest wall time.
func fastest(runs []childRun) childRun {
	top := runs[0]
	for _, r := range runs[1:] {
		if r.res.WallMs < top.res.WallMs {
			top = r
		}
	}
	return top
}

// serveSplit computes serve-sliding's per-endpoint latency percentiles
// from one iteration; it is empty for the other workloads.
func serveSplit(r childRun) map[string]metricValue {
	if r.res.Samples == nil {
		return nil
	}
	out := map[string]metricValue{}
	for _, sp := range servePercentiles {
		xs := r.res.Samples[sp.sample]
		out[sp.name] = metricValue{Value: finite(percentile(xs, sp.p)), Unit: "ms", N: len(xs)}
	}
	return out
}

// check applies the correctness checks of a pass: every child succeeded,
// no operation failed, every iteration (traced or not) produced the same
// report bytes, and at seed 1 and full sizes those bytes match the pinned
// digest.
func check(rec *record, runs []childRun, o options) {
	for i, r := range runs {
		rec.Attempted += r.res.Ops
		rec.Failed += r.res.Failed
		if r.res.Error != "" {
			rec.Problems = append(rec.Problems, fmt.Sprintf("iteration %d: %s", i, r.res.Error))
		}
		rec.Problems = append(rec.Problems, r.res.Problems...)
		if i == 0 {
			rec.Digest = r.res.Digest
		} else if r.res.Digest != rec.Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("iteration %d: report digest %s differs from %s", i, r.res.Digest, rec.Digest))
		}
	}
	if rec.Attempted == 0 {
		rec.Attempted = 1 // a pass that ran nothing still attempted to
		rec.Failed = 1
		rec.Problems = append(rec.Problems, "no operation ran")
	}
	if o.seed == 1 && !o.smoke {
		var pinned map[string]string
		if err := json.Unmarshal(pinnedDigestsJSON, &pinned); err != nil {
			rec.Problems = append(rec.Problems, fmt.Sprintf("testdata/digests.json: %v", err))
		} else if want, ok := pinned[rec.Workload]; !ok {
			rec.Problems = append(rec.Problems, "no pinned digest in testdata/digests.json")
		} else if rec.Digest != want {
			rec.Problems = append(rec.Problems, fmt.Sprintf("report digest %s, pinned %s (testdata/digests.json)", rec.Digest, want))
		}
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// finite maps NaN and infinities (medians of nothing) to 0, which JSON
// can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// printRecord prints a pass as a readable table followed by its record
// line.
func printRecord(w io.Writer, rec *record) {
	pass := "untraced"
	if rec.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s pass: %d iteration(s), %d set-up run(s), host slowdown %.3f; nproc=%d gomaxprocs=%d %s commit=%s\n",
		rec.Workload, rec.Seed, pass, rec.Iterations, rec.SetupRuns, rec.HostSlowdown, rec.Stamp.Nproc, rec.Stamp.GOMAXPROCS, rec.Stamp.GoVersion, rec.Stamp.Commit)
	show := func(ms map[string]metricValue) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			fmt.Fprintf(w, "   %-36s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	show(rec.Metrics)
	show(rec.Info)
	status := "ok"
	if !rec.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "   correctness: %s (%d attempted, %d failed, digest %.16s)\n", status, rec.Attempted, rec.Failed, rec.Digest)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(w, "   (record not encodable: %v)\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}
