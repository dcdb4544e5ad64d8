package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/scenario"
	"pef/internal/search"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke sizes through both passes and
// checks that each emits all of its metrics, passes its correctness
// checks, and renders the same report bytes traced and untraced.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-seconds", "0", "-trace-dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var final result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !final.Correct || final.Failed != 0 || final.Attempted < 1 {
		t.Errorf("result: correct=%t attempted=%d failed=%d", final.Correct, final.Attempted, final.Failed)
	}

	digests := map[string]map[bool]string{}
	for _, line := range lines {
		var rec record
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Workload == "" {
			continue
		}
		if !rec.Correct {
			t.Errorf("%s traced=%t: correctness checks failed: %v", rec.Workload, rec.Traced, rec.Problems)
		}
		want := e2eMetrics
		if rec.Traced {
			want = layerMetrics
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s traced=%t: %d metrics, want %d", rec.Workload, rec.Traced, len(rec.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s traced=%t: metric %s missing or in unit %q, want %q", rec.Workload, rec.Traced, m.name, got.Unit, m.unit)
			}
		}
		if digests[rec.Workload] == nil {
			digests[rec.Workload] = map[bool]string{}
		}
		digests[rec.Workload][rec.Traced] = rec.Digest
	}
	for _, w := range workloads {
		d := digests[w.name]
		if len(d) != 2 {
			t.Errorf("%s: want an untraced and a traced record, got %d", w.name, len(d))
			continue
		}
		if d[false] != d[true] {
			t.Errorf("%s: traced report digest %s differs from untraced %s", w.name, d[true], d[false])
		}
	}
	if t.Failed() {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics the program emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, names, units, betters []string, want []metricDef) {
		if len(names) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(names), len(want))
			return
		}
		for i, m := range want {
			if names[i] != m.name || units[i] != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], m.name, m.unit)
			}
			if betters[i] != "higher" && betters[i] != "lower" {
				t.Errorf("%s %s: better %q", kind, names[i], betters[i])
			}
		}
	}
	var names, units, betters []string
	for _, m := range spec.EndToEnd {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", names, units, betters, e2eMetrics)
	names, units, betters = nil, nil, nil
	for _, m := range spec.PerLayer {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
	}
	check("per_layer", names, units, betters, layerMetrics)
}

// TestCheckFindings pins how search violations count: one that the scalar
// oracle replays is output, anything else is a failed operation.
func TestCheckFindings(t *testing.T) {
	// Found by search seed 43 at 12 generations × 256 specs.
	gap, err := scenario.DecodeSpec([]byte(`{"version":1,"ring":11,"robots":3,"algorithm":"pef3+","placement":"even","family":"markov","params":{"up":0.01,"down":0.55},"horizon":2200,"seed":14617434723818034084,"expect":"explore"}`))
	if err != nil {
		t.Fatal(err)
	}
	const gapViolation = "max revisit gap 1244 exceeds bound 1100 (node 0)"
	ok := gap
	ok.Params.Up = 0.5
	if v := scenario.Run(ok); !v.OK {
		t.Fatalf("control spec %s does not hold: %s", ok.ID(), v.Violation)
	}
	for _, c := range []struct {
		name   string
		v      search.Violation
		failed int
	}{
		{"replays", search.Violation{ID: gap.ID(), Spec: gap, Violation: gapViolation}, 0},
		{"replays with reproducer", search.Violation{ID: gap.ID(), Spec: gap, Violation: gapViolation, Minimized: &gap}, 0},
		{"other violation", search.Violation{ID: gap.ID(), Spec: gap, Violation: "max revisit gap 9 exceeds bound 8 (node 1)"}, 1},
		{"holds on replay", search.Violation{ID: ok.ID(), Spec: ok, Violation: gapViolation}, 1},
		{"reproducer holds", search.Violation{ID: gap.ID(), Spec: gap, Violation: gapViolation, Minimized: &ok}, 1},
		{"error verdict", search.Violation{ID: gap.ID(), Spec: gap, Err: "boom"}, 1},
	} {
		it := &iteration{}
		checkFindings(it, []search.Violation{c.v})
		if it.res.Failed != c.failed {
			t.Errorf("%s: %d failed, want %d (problems %v)", c.name, it.res.Failed, c.failed, it.res.Problems)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 4, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name      string
		b         []float64
		direction string
		want      string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "higher", "ok"},
		{"faster", []float64{120, 121, 119, 120, 120}, "higher", "ok"},
		{"slower", []float64{80, 81, 79, 80, 80}, "higher", "regressed"},
		{"slower within bound", []float64{95, 96, 94, 95, 95}, "higher", "ok"},
		{"more latency", []float64{120, 121, 119, 120, 120}, "lower", "regressed"},
		{"noisy", []float64{60, 140, 100, 70, 130}, "higher", "unresolved"},
		{"noisy but always better", []float64{110, 200, 150, 120, 190}, "higher", "ok"},
	} {
		if got := verdict(steady, c.b, c.direction, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
