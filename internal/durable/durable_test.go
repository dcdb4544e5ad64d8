package durable_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/durable"
	"pef/internal/scenario"
	"pef/internal/search"
	"pef/internal/serve/cache"
)

// kind is one durable document kind: an older and a newer document, and
// a decoder that returns the re-encoding of what it accepted.
type kind struct {
	name         string
	older, newer []byte
	decode       func([]byte) ([]byte, error)
}

// kinds builds the three document kinds the durable module carries.
func kinds(tb testing.TB) []kind {
	dir := tb.TempDir()
	return []kind{
		{"campaign checkpoint", campaignCheckpoint(tb, 10), campaignCheckpoint(tb, 20), func(data []byte) ([]byte, error) {
			c, err := scenario.DecodeCheckpoint(data)
			if err != nil {
				return nil, err
			}
			return c.Encode()
		}},
		{"search checkpoint", searchCheckpoint(tb, 1), searchCheckpoint(tb, 2), func(data []byte) ([]byte, error) {
			c, err := search.DecodeCheckpoint(data)
			if err != nil {
				return nil, err
			}
			return c.Encode()
		}},
		{"cache spill", spill(tb, 2), spill(tb, 3), func(data []byte) ([]byte, error) {
			return respill(dir, data)
		}},
	}
}

// campaignCheckpoint encodes a small boundary campaign after done
// scenarios.
func campaignCheckpoint(tb testing.TB, done int) []byte {
	tb.Helper()
	cfg := scenario.CampaignConfig{Generator: "boundary", Count: 40, Seeds: []uint64{1}, Gen: scenario.GenConfig{MaxRing: 8}}
	agg, err := scenario.NewAggregate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for v, err := range scenario.StreamCampaign(context.Background(), cfg) {
		if err != nil {
			tb.Fatal(err)
		}
		if agg.Add(v); agg.Done() == done {
			break
		}
	}
	data, err := agg.Checkpoint().Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// searchCheckpoint encodes a small search after generation gen.
func searchCheckpoint(tb testing.TB, gen int) []byte {
	tb.Helper()
	var data []byte
	_, err := search.Run(context.Background(), search.Config{
		Seed: 3, Generations: 2, GenerationSize: 8, CorpusSize: 4, Workers: 1,
		OnGeneration: func(p search.Progress) error {
			if p.Generation < gen {
				return nil
			}
			var err error
			if data, err = p.Checkpoint().Encode(); err != nil {
				return err
			}
			return search.ErrHalted
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// spill returns the spill file of a cache holding n verdicts.
func spill(tb testing.TB, n int) []byte {
	tb.Helper()
	c := cache.New(cache.Config{})
	for seed := uint64(1); seed <= uint64(n); seed++ {
		s := scenario.Spec{
			Version: scenario.Version, Ring: 5, Robots: 3, Algorithm: "pef3+", Placement: scenario.PlaceEven,
			Family: "static", Horizon: 40, Seed: seed,
		}
		key, err := cache.Key(s)
		if err != nil {
			tb.Fatal(err)
		}
		c.Put(key, scenario.Run(s))
	}
	path := filepath.Join(tb.TempDir(), "cache.spill")
	if _, err := c.WriteSpill(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// respill warms a fresh cache from data and returns the spill it writes
// back; any warning (the spill's way of refusing a file) is an error.
func respill(dir string, data []byte) ([]byte, error) {
	in, out := filepath.Join(dir, "in.spill"), filepath.Join(dir, "out.spill")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		return nil, err
	}
	var warning error
	c := cache.New(cache.Config{})
	if _, err := c.WarmFromSpill(in, func(format string, args ...any) { warning = fmt.Errorf(format, args...) }); err != nil {
		return nil, err
	}
	if warning != nil {
		return nil, warning
	}
	if _, err := c.WriteSpill(out); err != nil {
		return nil, err
	}
	return os.ReadFile(out)
}

func TestRoundTrip(t *testing.T) {
	for _, k := range kinds(t) {
		for _, doc := range [][]byte{k.older, k.newer} {
			got, err := k.decode(doc)
			if err != nil {
				t.Fatalf("%s: decode: %v", k.name, err)
			}
			if !bytes.Equal(got, doc) {
				t.Fatalf("%s: re-encoding differs from the original", k.name)
			}
		}
		if bytes.Equal(k.older, k.newer) {
			t.Fatalf("%s: fixture documents are identical", k.name)
		}
	}
}

// TestTruncationNeverDecodes cuts each document at every byte offset: a
// cut may only decode when it removed nothing but trailing whitespace.
func TestTruncationNeverDecodes(t *testing.T) {
	for _, k := range kinds(t) {
		doc := k.newer
		for n := range doc {
			got, err := k.decode(doc[:n])
			if err == nil && (len(bytes.TrimSpace(doc[n:])) > 0 || !bytes.Equal(got, doc)) {
				t.Fatalf("%s: truncation to %d of %d bytes decoded", k.name, n, len(doc))
			}
		}
	}
}

// TestBitFlipsRejected flips every bit of each document's first 256
// bytes; every flip must be rejected.
func TestBitFlipsRejected(t *testing.T) {
	for _, k := range kinds(t) {
		doc := k.newer
		for i := range min(256, len(doc)) {
			for bit := range 8 {
				flipped := bytes.Clone(doc)
				flipped[i] ^= 1 << bit
				if _, err := k.decode(flipped); err == nil {
					t.Fatalf("%s: flip of bit %d at byte %d (%q -> %q) decoded", k.name, bit, i, doc[i], flipped[i])
				}
			}
		}
	}
}

// TestWritersLayout drives the writers and checks the documented layout:
// P from WriteAtomic, the newest rotation at P.1, the previous at P.2,
// and no P.tmp left behind.
func TestWritersLayout(t *testing.T) {
	for _, k := range kinds(t) {
		p := filepath.Join(t.TempDir(), "doc")
		for _, step := range []error{
			durable.WriteRotating(p, k.older),
			durable.WriteRotating(p, k.newer),
			durable.WriteAtomic(p, k.newer),
		} {
			if step != nil {
				t.Fatalf("%s: write: %v", k.name, step)
			}
		}
		for suffix, want := range map[string][]byte{"": k.newer, ".1": k.newer, ".2": k.older} {
			if got, err := os.ReadFile(p + suffix); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: P%s holds the wrong document (err %v)", k.name, suffix, err)
			}
		}
		if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%s: P.tmp left behind: %v", k.name, err)
		}
	}
}

// TestFallbackPicksNewestIntact lays out the files a crash can leave and
// requires the fallback reader to pick the newest intact document,
// warning loudly whenever it falls back.
func TestFallbackPicksNewestIntact(t *testing.T) {
	for _, k := range kinds(t) {
		torn := k.newer[:len(k.newer)/2]
		for _, tc := range []struct {
			name   string
			files  map[string][]byte // suffix -> content
			want   []byte
			warnOn string // rotation suffix named by the warning; "" for none
		}{
			{"stray tmp", map[string][]byte{"": k.older, ".tmp": torn}, k.older, ""},
			{".1 missing, .2 present", map[string][]byte{".2": k.older, ".tmp": k.newer}, k.older, ".2"},
			{"corrupt main, intact .1", map[string][]byte{"": torn, ".1": k.newer, ".2": k.older}, k.newer, ".1"},
			{"corrupt main and .1", map[string][]byte{"": torn, ".1": torn, ".2": k.older}, k.older, ".2"},
		} {
			p := filepath.Join(t.TempDir(), "doc")
			for suffix, data := range tc.files {
				if err := os.WriteFile(p+suffix, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var warn strings.Builder
			got, err := durable.ReadFallback(p, k.decode, &warn, "prog")
			if err != nil {
				t.Fatalf("%s / %s: %v", k.name, tc.name, err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("%s / %s: picked the wrong document", k.name, tc.name)
			}
			if tc.warnOn == "" && warn.Len() > 0 {
				t.Fatalf("%s / %s: unexpected warning %q", k.name, tc.name, warn.String())
			}
			if tc.warnOn != "" && !strings.Contains(warn.String(), "prog: WARNING") ||
				tc.warnOn != "" && !strings.Contains(warn.String(), "resuming from rotation "+p+tc.warnOn) {
				t.Fatalf("%s / %s: fallback warning %q does not name %s", k.name, tc.name, warn.String(), p+tc.warnOn)
			}
		}

		// Nothing intact: one loud error naming every attempt.
		p := filepath.Join(t.TempDir(), "doc")
		for _, suffix := range []string{"", ".1", ".2"} {
			if err := os.WriteFile(p+suffix, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := durable.ReadFallback(p, k.decode, &strings.Builder{}, "prog")
		if err == nil || !strings.Contains(err.Error(), "no rotation could be recovered") || !strings.Contains(err.Error(), p+".2:") {
			t.Fatalf("%s: all-corrupt read: %v", k.name, err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to both checkpoint decoders: nothing
// may panic, and any accepted checkpoint must re-encode to bytes that
// decode back to the same checkpoint.
func FuzzDecode(f *testing.F) {
	for _, k := range kinds(f) {
		f.Add(k.older)
		f.Add(k.newer)
	}
	f.Add([]byte(`{"version": 1, "checksum": "00"}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := scenario.DecodeCheckpoint(data); err == nil {
			roundTrip(t, c, (*scenario.Checkpoint).Encode, scenario.DecodeCheckpoint)
		}
		if c, err := search.DecodeCheckpoint(data); err == nil {
			roundTrip(t, c, (*search.Checkpoint).Encode, search.DecodeCheckpoint)
		}
	})
}

func roundTrip[T any](t *testing.T, c *T, encode func(*T) ([]byte, error), decode func([]byte) (*T, error)) {
	data, err := encode(c)
	if err != nil {
		t.Fatalf("accepted checkpoint does not re-encode: %v", err)
	}
	back, err := decode(data)
	if err != nil {
		t.Fatalf("re-encoded checkpoint does not decode: %v", err)
	}
	again, err := encode(back)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoded checkpoint decodes to a different checkpoint (err %v)", err)
	}
}
