package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pef/internal/scenario"
)

// syncBuffer is a concurrency-safe stderr sink: run writes from its own
// goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServe runs the daemon in a goroutine and waits for its bound
// address, returning the address, stderr sink, a cancel that triggers
// the drain, and the run-result channel.
func startServe(t *testing.T, extraArgs ...string) (string, *syncBuffer, context.CancelFunc, <-chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	stderr := &syncBuffer{}
	args := append([]string{"-addr-file", addrFile, "-drain-grace", "5s"}, extraArgs...)
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, args, io.Discard, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return string(data), stderr, cancel, done
		}
		select {
		case err := <-done:
			t.Fatalf("pef serve exited before binding: %v\nstderr: %s", err, stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("pef serve never wrote its address\nstderr: %s", stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func directReport(t *testing.T, ccfg scenario.CampaignConfig) string {
	t.Helper()
	agg, err := scenario.NewAggregate(ccfg)
	if err != nil {
		t.Fatalf("NewAggregate: %v", err)
	}
	for v, serr := range scenario.StreamCampaign(context.Background(), ccfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign: %v", serr)
		}
		agg.Add(v)
	}
	var buf bytes.Buffer
	if err := agg.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return buf.String()
}

func postCampaign(t *testing.T, addr, body string) string {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /campaign: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading campaign stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /campaign: status %d, body %s", resp.StatusCode, data)
	}
	return string(data)
}

func metricsCounters(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return snap.Counters
}

// TestServeEndToEnd is the daemon's lifecycle in one pass: serve a
// campaign byte-identical to the direct run, serve it again entirely
// from cache, drain cleanly on cancel spilling the cache, then restart
// warm from the spill and serve it a third time without one simulation.
func TestServeEndToEnd(t *testing.T) {
	const count = 16
	body := fmt.Sprintf(`{"generator":"boundary","gen":{"maxRing":8},"count":%d,"seeds":[5]}`, count)
	want := directReport(t, scenario.CampaignConfig{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     count,
		Seeds:     []uint64{5},
	})
	spill := filepath.Join(t.TempDir(), "pef.spill")

	addr, stderr, cancel, done := startServe(t, "-spill", spill)
	if got := postCampaign(t, addr, body); got != want {
		t.Fatalf("served report diverged from direct bytes:\n--- served ---\n%s\n--- direct ---\n%s", got, want)
	}
	coldHits := metricsCounters(t, addr)["cache.hits"]
	if got := postCampaign(t, addr, body); got != want {
		t.Fatal("resubmitted report diverged from direct bytes")
	}
	if hits := metricsCounters(t, addr)["cache.hits"] - coldHits; hits < count {
		t.Fatalf("resubmission hit the cache %d of %d times", hits, count)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain returned an error: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("stderr lacks the clean-drain line:\n%s", stderr)
	}
	if fi, err := os.Stat(spill); err != nil || fi.Size() == 0 {
		t.Fatalf("drain left no spill at %s: %v", spill, err)
	}

	// Warm restart: the spill makes the whole campaign cache hits.
	addr2, stderr2, cancel2, done2 := startServe(t, "-spill", spill)
	if !strings.Contains(stderr2.String(), "warmed") {
		t.Fatalf("restart did not log the warm: %s", stderr2)
	}
	if got := postCampaign(t, addr2, body); got != want {
		t.Fatal("warm-restart report diverged from direct bytes")
	}
	c := metricsCounters(t, addr2)
	if c["cache.hits"] < count || c["cache.misses"] != 0 {
		t.Fatalf("warm restart ran simulations: hits=%d misses=%d", c["cache.hits"], c["cache.misses"])
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestServeHealthzAndRun(t *testing.T) {
	addr, _, cancel, done := startServe(t)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}

	spec := scenario.Spec{
		Version:   scenario.Version,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: scenario.PlaceEven,
		Family:    "bernoulli",
		Params:    scenario.Params{P: 0.5},
		Horizon:   50,
		Seed:      9,
	}
	want := scenario.Run(spec)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantStatus := range []string{"miss", "hit"} {
		resp, err := http.Post("http://"+addr+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /run #%d: %v", i, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /run #%d: status %d, body %s", i, resp.StatusCode, data)
		}
		if st := resp.Header.Get("X-Pef-Cache"); st != wantStatus {
			t.Fatalf("POST /run #%d: X-Pef-Cache %q, want %q", i, st, wantStatus)
		}
		var v scenario.Verdict
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("decoding verdict: %v", err)
		}
		if v != want {
			t.Fatalf("served verdict diverged from direct run")
		}
	}
	cancel()
	<-done
}

func TestServeFlagValidation(t *testing.T) {
	stderr := &syncBuffer{}
	if err := runServe(context.Background(), []string{"-spill", "x", "-cache-bytes", "0"}, io.Discard, stderr); err == nil ||
		!strings.Contains(err.Error(), "-spill requires") {
		t.Fatalf("spill without cache: err = %v", err)
	}
	if err := runServe(context.Background(), []string{"positional"}, io.Discard, stderr); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("positional args: err = %v", err)
	}
}
