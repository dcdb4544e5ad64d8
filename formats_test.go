package pef

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pef/internal/scenario"
	"pef/internal/search"
	"pef/internal/serve/cache"
)

// TestDurableFormatBytesPinned pins the on-disk bytes of the three
// durable document kinds — a campaign checkpoint, a search checkpoint and
// a verdict-cache spill — by SHA-256, so a refactor of the encoding or
// write path cannot change a byte unnoticed. The digests were captured
// before the three writers were folded into one module.
func TestDurableFormatBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		data       func(t *testing.T) []byte
	}{
		{"campaign checkpoint", "9deb0d9dd5c9e3dce7e15a974d8b76fd69a33c94766904b421f96825d8b98621", pinnedCampaignCheckpoint},
		{"search checkpoint", "42ec454c7142124048d4d3b0bb72dec3b71e4a0a47d551f0e85cb2d555f88bf3", pinnedSearchCheckpoint},
		{"cache spill", "9366a4df4ed4a84d478f54ad8fc108914112dfb4c0378132465fbe8bdbb02bfc", pinnedSpill},
	} {
		sum := sha256.Sum256(tc.data(t))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes moved: sha256 %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// pinnedCampaign is `pefscenarios -family boundary -count 40 -maxring 8`.
func pinnedCampaign() scenario.CampaignConfig {
	return scenario.CampaignConfig{Generator: "boundary", Count: 40, Seeds: []uint64{1}, Gen: scenario.GenConfig{MaxRing: 8}}
}

// pinnedCampaignCheckpoint is the checkpoint the pinned campaign writes
// with `-halt-after 30`.
func pinnedCampaignCheckpoint(t *testing.T) []byte {
	cfg := pinnedCampaign()
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, err := range scenario.StreamCampaign(context.Background(), cfg) {
		if err != nil {
			t.Fatal(err)
		}
		if agg.Add(v); agg.Done() == 30 {
			break
		}
	}
	data, err := agg.Checkpoint().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pinnedSearchCheckpoint is the checkpoint `pefsearch -seed 3
// -generations 4 -generation-size 32 -halt-after 2` writes.
func pinnedSearchCheckpoint(t *testing.T) []byte {
	var data []byte
	_, err := search.Run(context.Background(), search.Config{
		Seed: 3, Generations: 4, GenerationSize: 32, Gen: scenario.GenConfig{MaxRing: 16},
		OnGeneration: func(p search.Progress) error {
			if p.Generation < 2 {
				return nil
			}
			var err error
			data, err = p.Checkpoint().Encode()
			if err != nil {
				return err
			}
			return search.ErrHalted
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pinnedSpill is the spill of a cache holding the first four verdicts of
// the pinned campaign.
func pinnedSpill(t *testing.T) []byte {
	c := cache.New(cache.Config{})
	cfg := pinnedCampaign()
	n := 0
	for v, err := range scenario.StreamCampaign(context.Background(), cfg) {
		if err != nil {
			t.Fatal(err)
		}
		key, err := cache.Key(v.Spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(key, v)
		if n++; n == 4 {
			break
		}
	}
	path := filepath.Join(t.TempDir(), "cache.spill")
	if _, err := c.WriteSpill(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
