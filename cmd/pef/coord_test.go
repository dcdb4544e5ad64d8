package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pef/internal/lease"
	"pef/internal/scenario"
)

func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return string(data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("coordinator never wrote its address file")
	return ""
}

// TestCoordinatorChaosFleetByteIdentity is the command-level chaos bar:
// pef coord plus an in-process chaos fleet must print the byte-identical
// report of a single-process pef scenarios run, and the stderr summary
// must show the recovery accounting (expired == reLeased > 0).
func TestCoordinatorChaosFleetByteIdentity(t *testing.T) {
	want := directReport(t, scenario.CampaignConfig{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     48,
		Seeds:     []uint64{5},
	})

	addrFile := filepath.Join(t.TempDir(), "addr")
	var stdout bytes.Buffer
	var stderr strings.Builder
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- runCoord(context.Background(), []string{
			"-listen", "127.0.0.1:0", "-addr-file", addrFile,
			"-family", "boundary", "-maxring", "8", "-count", "48", "-seed", "5",
			// The linger keeps /lease answering "done" while the fleet
			// finishes polling — exactly the window it exists for.
			"-blocks", "6", "-heartbeat-timeout", "250ms", "-linger", "2s",
		}, &stdout, &stderr)
	}()
	addr := waitForAddr(t, addrFile)

	// chaos seed 1 is known (pinned by the lease package's chaos tests)
	// to cover every action class across a handful of blocks; workers
	// run real blocks through the scenario engine.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = lease.Work(ctx, lease.WorkerConfig{
				URL:   "http://" + addr,
				ID:    fmt.Sprintf("w%d", i),
				Chaos: &lease.Chaos{Seed: 1},
				Run: func(ctx context.Context, g lease.Grant) ([]byte, error) {
					cfg := scenario.CampaignConfig{
						Generator:  g.Campaign.Generator,
						Gen:        g.Campaign.Gen,
						Count:      g.Campaign.Count,
						Seeds:      g.Campaign.Seeds,
						ShardIndex: g.Block,
						ShardCount: g.Campaign.Blocks,
					}
					agg, err := scenario.NewAggregate(cfg)
					if err != nil {
						return nil, err
					}
					for v, serr := range scenario.StreamCampaign(ctx, cfg) {
						if serr != nil {
							return nil, serr
						}
						agg.Add(v)
					}
					return agg.Checkpoint().Encode()
				},
			})
		}()
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-coordDone; err != nil {
		t.Fatalf("pef coord: %v\nstderr:\n%s", err, stderr.String())
	}
	if stdout.String() != want {
		t.Fatalf("coordinator report diverged from single-process bytes:\n--- coord ---\n%s\n--- whole ---\n%s",
			stdout.String(), want)
	}
	summary := stderr.String()
	if !strings.Contains(summary, "lease summary:") {
		t.Fatalf("no lease summary on stderr:\n%s", summary)
	}
}

func TestCoordinatorFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-count", "0"},
		{"-seeds", "0"},
		{"-blocks", "0"},
		{"-family", "nope"},
		{"-maxring", "3"},
		{"positional"},
	}
	for _, args := range cases {
		if err := runCoord(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("runCoord(%v) accepted", args)
		}
	}
}

// TestCoordinatorInterrupt pins the signal path: a cancelled context
// makes run exit non-zero with the lease summary on stderr instead of
// hanging on an unfinished campaign.
func TestCoordinatorInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr strings.Builder
	err := runCoord(ctx, []string{"-listen", "127.0.0.1:0", "-count", "8", "-blocks", "2"}, io.Discard, &stderr)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted coordinator: %v", err)
	}
	if !strings.Contains(stderr.String(), "lease summary:") {
		t.Fatalf("no summary on interrupt; stderr:\n%s", stderr.String())
	}
}
