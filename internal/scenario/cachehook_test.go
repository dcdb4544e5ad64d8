package scenario

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// mapCache is a correct in-memory VerdictCache with call accounting.
type mapCache struct {
	mu            sync.Mutex
	m             map[string]Verdict
	hits, stores  int
	lookups       int
	storedWithErr int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]Verdict{}} }

func (c *mapCache) Lookup(s Spec) (Verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	v, ok := c.m[s.ID()]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *mapCache) Store(s Spec, v Verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.Err != "" {
		c.storedWithErr++
	}
	c.stores++
	c.m[s.ID()] = v
}

func campaignReport(t *testing.T, cfg CampaignConfig) string {
	t.Helper()
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatalf("NewAggregate: %v", err)
	}
	total := 0
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign: %v", serr)
		}
		agg.Add(v)
		total++
	}
	var buf bytes.Buffer
	if err := agg.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	return buf.String()
}

// TestCampaignCacheByteIdentity pins the cache hook's contract: a
// campaign with a cache attached renders the byte-identical report of
// the uncached run — on the cold pass (all misses, everything stored)
// and on the warm pass (all hits, zero engine executions). The boundary
// sample mixes lane specs with scalar-routed ones (the confinement
// adversaries), so the miss block exercises both engine routes.
func TestCampaignCacheByteIdentity(t *testing.T) {
	base := CampaignConfig{
		Generator: "boundary",
		Gen:       GenConfig{MaxRing: 8},
		Count:     32,
		Seeds:     []uint64{3},
		Workers:   4,
	}
	direct := base
	tel := NewTelemetry()
	direct.Telemetry = tel
	want := campaignReport(t, direct)
	snap := tel.Snapshot()
	if snap.Counters["engine.lockstepSpecs"] == 0 || snap.Counters["engine.scalarSpecs"] == 0 {
		t.Fatalf("sample must take both engine routes: lockstep %d, scalar %d",
			snap.Counters["engine.lockstepSpecs"], snap.Counters["engine.scalarSpecs"])
	}

	cold := base
	mc := newMapCache()
	cold.Cache = mc
	if got := campaignReport(t, cold); got != want {
		t.Fatalf("cold cached report diverged:\n--- cached ---\n%s\n--- direct ---\n%s", got, want)
	}
	if mc.stores == 0 {
		t.Fatal("cold pass stored nothing")
	}
	if mc.storedWithErr != 0 {
		t.Fatalf("%d error verdicts offered to Store", mc.storedWithErr)
	}

	warm := base
	warm.Cache = mc
	storesBefore := mc.stores
	if got := campaignReport(t, warm); got != want {
		t.Fatal("warm cached report diverged from direct bytes")
	}
	if mc.stores != storesBefore {
		t.Fatalf("warm pass ran %d engine executions, want 0", mc.stores-storesBefore)
	}
	if mc.hits != 32 {
		t.Fatalf("warm pass hit %d of 32", mc.hits)
	}
}

// TestCampaignCacheNeverStoresCancelled: a cancelled campaign yields
// error-carrying verdicts for the unexecuted tail; none of them may be
// offered to Store (a cached cancellation would poison later runs).
func TestCampaignCacheNeverStoresCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mc := newMapCache()
	cfg := CampaignConfig{
		Generator: "boundary",
		Gen:       GenConfig{MaxRing: 8},
		Count:     16,
		Seeds:     []uint64{3},
		Cache:     mc,
	}
	for range StreamCampaign(ctx, cfg) {
	}
	if mc.storedWithErr != 0 {
		t.Fatalf("%d cancelled verdicts reached Store", mc.storedWithErr)
	}
}
