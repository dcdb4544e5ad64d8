package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Every iteration runs in a fresh child process — the same binary,
// re-executed with childEnv set — because a CLI user pays process
// start-up, registry construction and a cold cache on every run.
const childEnv = "PEFBENCH_CHILD"

// childTimeout bounds one child so a hung iteration still ends the run
// within its time limit.
const childTimeout = 150 * time.Second

// childSpec tells a child what to run.
type childSpec struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Sizes     sizes  `json:"sizes"`
	SetupOnly bool   `json:"setupOnly,omitempty"`
	// TraceFile, when set, selects the traced pass and receives the
	// iteration's spans as JSONL.
	TraceFile string `json:"traceFile,omitempty"`
	// Calibrate runs the calibration kernel instead of a workload.
	Calibrate bool `json:"calibrate,omitempty"`
}

// childResult is what a child reports on its standard output.
type childResult struct {
	// SubmitUnixNano is the wall clock when the first unit of work was
	// submitted; the parent subtracts its spawn time to get set-up time.
	SubmitUnixNano int64   `json:"submitUnixNano"`
	WallMs         float64 `json:"wallMs"`
	Ops            int     `json:"ops"`
	Failed         int     `json:"failed"`
	Digest         string  `json:"digest,omitempty"`
	// Latencies are the workload's request latencies in ms; Samples holds
	// named sub-populations of them (serve-sliding's two endpoints).
	Latencies []float64            `json:"latenciesMs,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Layers    map[string]float64   `json:"layers,omitempty"`
	Problems  []string             `json:"problems,omitempty"`
	Error     string               `json:"error,omitempty"`
}

// childMain runs one iteration and prints its childResult.
func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "pefbench child: bad %s: %v\n", childEnv, err)
		return 2
	}
	if spec.Calibrate {
		start := time.Now()
		runCalibration()
		return printResult(childResult{SubmitUnixNano: start.UnixNano(), WallMs: float64(time.Since(start).Nanoseconds()) / 1e6})
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "pefbench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	it := &iteration{seed: spec.Seed, sz: spec.Sizes, setupOnly: spec.SetupOnly, digest: newDigest()}
	traced := spec.TraceFile != "" && !spec.SetupOnly
	var ms0 runtime.MemStats
	var heap *heapSampler
	if traced {
		it.tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", w.name, spec.Seed, os.Getpid()))
		runtime.ReadMemStats(&ms0)
		heap = startHeapSampler()
	}

	err := w.run(context.Background(), it)
	it.res.WallMs = it.sinceSubmit()
	it.tr.end(it.root)
	res := it.res
	res.SubmitUnixNano = it.submit.UnixNano()
	res.Digest = digestHex(it.digest)
	if err != nil {
		res.Error = err.Error()
	}
	if traced {
		peak := heap.stop()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		l := it.layers()
		l["process.allocs_per_spec"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(res.Ops))
		l["process.gc_cpu_fraction"] = ms1.GCCPUFraction
		l["process.heap_peak_mb"] = float64(peak) / (1 << 20)
		if sum, serr := summarize(it.tr.snapshot(), "iteration"); serr == nil {
			l["trace.coverage_ratio"] = sum.coverage
		} else if err == nil {
			res.Error = serr.Error()
		}
		if werr := it.tr.write(spec.TraceFile); werr != nil && res.Error == "" {
			res.Error = fmt.Sprintf("writing trace: %v", werr)
		}
		res.Layers = l
	}
	return printResult(res)
}

// printResult writes a child's result to standard output and returns
// the child's exit code.
func printResult(res childResult) int {
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "pefbench child: %v\n", err)
		return 2
	}
	if res.Error != "" {
		return 1
	}
	return 0
}

// heapSampler polls the live heap every few milliseconds and keeps the
// peak; the runtime keeps no high-water mark of its own.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}

// childRun is one finished child as the parent sees it.
type childRun struct {
	res      childResult
	setupS   float64
	maxRSSMB float64
	cpuMs    float64
}

// spawn runs one child to completion and collects its result, its set-up
// time (spawn to first submission) and its peak resident set.
func spawn(ctx context.Context, spec childSpec) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	runErr := cmd.Run()

	var run childRun
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &run.res); err != nil {
		if runErr != nil {
			return run, fmt.Errorf("child %s: %w", spec.Workload, runErr)
		}
		return run, fmt.Errorf("child %s: reading its result: %w", spec.Workload, err)
	}
	if runErr != nil && run.res.Error == "" {
		run.res.Error = runErr.Error()
	}
	run.setupS = float64(run.res.SubmitUnixNano-spawned.UnixNano()) / 1e9
	if cmd.ProcessState != nil {
		run.cpuMs = float64((cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Microseconds()) / 1e3
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			run.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return run, nil
}
