package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords collects, per workload and metric, the values of every
// record line in a file, in file order. Lines that are not records (the
// readable tables, the final result line) are skipped.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compare prints, for every (workload, metric) pair both files hold, each
// side's median and quartiles and how often B beat A run for run, and
// labels end-to-end pairs by the bounds in BENCHMARK.json:
//
//   - unresolved: either side's spread (quartile distance over median)
//     exceeds the bound, unless every B run beats every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - ok: otherwise.
//
// It reports false when any pair is regressed or unresolved.
func compare(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	spec, err := loadBenchSpec(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	type def struct {
		name, unit, better string
		bound              float64
		bounded            bool
	}
	var defs []def
	for _, m := range spec.EndToEnd {
		defs = append(defs, def{m.Name, m.Unit, m.Better, m.Bound, true})
	}
	for _, m := range spec.PerLayer {
		defs = append(defs, def{name: m.Name, unit: m.Unit, better: m.Better})
	}

	fmt.Fprintf(w, "%-21s %-34s %-6s %10s %10s %10s | %10s %10s %10s | %6s %s\n",
		"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B wins", "label")
	ok := true
	for _, wl := range workloads {
		for _, d := range defs {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			wins, pairs := 0, min(len(va), len(vb))
			for i := 0; i < pairs; i++ {
				if better(d.better, vb[i], va[i]) {
					wins++
				}
			}
			label := "-"
			if d.bounded {
				label = verdict(va, vb, d.better, d.bound)
				if label != "ok" {
					ok = false
				}
			}
			fmt.Fprintf(w, "%-21s %-34s %-6s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %2d/%-3d %s\n",
				wl.name, d.name, d.unit, a1, a2, a3, b1, b2, b3, wins, pairs, label)
		}
	}
	return ok, nil
}

// better reports whether x beats y in the metric's direction.
func better(direction string, x, y float64) bool {
	if direction == "higher" {
		return x > y
	}
	return x < y
}

// verdict labels one bounded pair of samples.
func verdict(va, vb []float64, direction string, bound float64) string {
	if spread(va) > bound || spread(vb) > bound {
		for _, x := range vb {
			for _, y := range va {
				if !better(direction, x, y) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	ma, mb := median(va), median(vb)
	worse := (mb - ma) / math.Abs(ma)
	if direction == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}
