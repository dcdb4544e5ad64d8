package scenario

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/ring"
)

// fanBlock returns a block mixing every registered generator's samples:
// lane groups of several shapes interleaved with scalar-only specs
// (adaptive adversaries, wide rings), so units of both kinds share the
// cursor.
func fanBlock(t *testing.T, seed uint64, perGen int) []Spec {
	t.Helper()
	var block []Spec
	for _, g := range Generators() {
		specs, err := Generate(g.Name, GenConfig{}, seed, perGen)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		block = append(block, specs...)
	}
	return block
}

func verdictJSON(t *testing.T, vs []Verdict) string {
	t.Helper()
	b, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunBlockFanByteIdentity is the fan-out differential: RunBlock's
// verdict JSON must be byte-identical at fan 1, 2 and 8, for blocks of
// every generator alone and for one block mixing all of them.
func TestRunBlockFanByteIdentity(t *testing.T) {
	ctx := context.Background()
	blocks := map[string][]Spec{"mixed": fanBlock(t, 11, 40)}
	for _, g := range Generators() {
		specs, err := Generate(g.Name, GenConfig{}, 7, 150)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		blocks[g.Name] = specs
	}
	for name, specs := range blocks {
		want := verdictJSON(t, RunBlock(ctx, specs, RunOptions{}))
		for _, fan := range []int{2, 8} {
			got := verdictJSON(t, RunBlock(ctx, specs, RunOptions{Telemetry: NewTelemetry(), fan: fan}))
			if got != want {
				t.Errorf("%s: fan %d verdict JSON differs from fan 1", name, fan)
			}
		}
	}
}

// TestRunBlockFanSkipsOverrides pins the override guard: options carrying
// caller objects run every unit on the calling goroutine whatever the
// fan, so an observer that is not safe for concurrent use stays safe.
func TestRunBlockFanSkipsOverrides(t *testing.T) {
	specs, err := Generate("uniform", GenConfig{}, 9, 24)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0 // unsynchronized on purpose: -race flags any fan-out
	got := RunBlock(context.Background(), specs, RunOptions{Observers: []fsync.Observer{countRounds{&rounds}}, fan: 8})
	want := RunBlock(context.Background(), specs, RunOptions{})
	for i := range specs {
		if got[i].ID != want[i].ID || got[i].OK != want[i].OK || got[i].Outcome != want[i].Outcome {
			t.Fatalf("spec %d: override verdict %+v, want %+v", i, got[i], want[i])
		}
	}
	if rounds == 0 {
		t.Fatal("observers were dropped")
	}
}

// tripGraph is a static ring whose Present calls hook once time reaches
// at: a test dynamics that cancels or panics mid-run at a fixed round.
type tripGraph struct {
	r    ring.Ring
	at   int
	hook func()
}

func (g tripGraph) Ring() ring.Ring { return g.r }

func (g tripGraph) Present(e, t int) bool {
	if t >= g.at {
		g.hook()
	}
	return e >= 0 && e < g.r.Edges()
}

// tripRegistry registers the "trip" family over hook on a fresh
// registry. Its specs are explorable static rings, lane-eligible up to
// 64 nodes and scalar beyond.
func tripRegistry(t *testing.T, at int, hook func()) *Registry {
	t.Helper()
	reg := NewRegistry()
	if err := reg.RegisterFamily("trip", FamilyDescriptor{
		Description: "static ring that trips a hook at a fixed round",
		Explorable:  true,
		Graph: func(s Spec) (dyngraph.EvolvingGraph, error) {
			return tripGraph{r: ring.New(s.Ring), at: at, hook: hook}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// tripBlock interleaves stock specs with trip specs of two lane shapes
// and one wide (scalar) ring, so the trip lands in several units. Their
// horizon spans three cancellation polls (rounds 0, 256 and 512), so a
// trip between two polls still cuts every trip spec short.
func tripBlock(t *testing.T) []Spec {
	t.Helper()
	block := fanBlock(t, 5, 12)
	for i, n := range []int{6, 9, 70, 6, 9, 70} {
		block = append(block, Spec{Version: Version, Ring: n, Robots: 3, Algorithm: "pef3+",
			Placement: PlaceEven, Family: "trip", Horizon: 600, Seed: uint64(i + 1)})
		block[len(block)-1], block[i*7] = block[i*7], block[len(block)-1]
	}
	return block
}

// TestRunBlockFanCancellation cancels a block mid-run and checks the
// fan-out keeps the cancellation contract of fan 1: every verdict keeps
// its spec's identity and is either the uncancelled verdict or a
// cancelled partial one. A pre-cancelled context — every unit sees the
// cancellation before its first round — and the identity-filled verdicts
// StreamSpecs yields for blocks it never ran are byte-identical between
// fan 1 and 2.
func TestRunBlockFanCancellation(t *testing.T) {
	block := tripBlock(t)
	ref := RunBlock(context.Background(), block, RunOptions{Registry: tripRegistry(t, 1<<30, func() {})})

	for _, fan := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		// The trip fires between the polls at rounds 256 and 512.
		reg := tripRegistry(t, 300, cancel)
		got := RunBlock(ctx, block, RunOptions{Registry: reg, fan: fan})
		cancel()
		cancelled := 0
		for i, v := range got {
			if v.ID != ref[i].ID || v.Spec != ref[i].Spec || v.Expect != ref[i].Expect {
				t.Fatalf("fan %d spec %d: identity %s, want %s", fan, i, v.ID, ref[i].ID)
			}
			if v.Outcome == "cancelled" {
				if v.OK || !strings.HasPrefix(v.Err, "cancelled after ") || !strings.HasSuffix(v.Err, context.Canceled.Error()) {
					t.Fatalf("fan %d spec %d: malformed cancelled verdict %+v", fan, i, v)
				}
				cancelled++
				continue
			}
			if verdictJSON(t, got[i:i+1]) != verdictJSON(t, ref[i:i+1]) {
				t.Fatalf("fan %d spec %d: neither cancelled nor the reference verdict:\n%+v\n%+v", fan, i, v, ref[i])
			}
		}
		if cancelled == 0 {
			t.Fatalf("fan %d: no verdict was cancelled", fan)
		}
	}

	reg := tripRegistry(t, 1<<30, func() {})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := verdictJSON(t, RunBlock(ctx, block, RunOptions{Registry: reg}))
	if got := verdictJSON(t, RunBlock(ctx, block, RunOptions{Registry: reg, fan: 2})); got != want {
		t.Error("pre-cancelled block: fan 2 verdict JSON differs from fan 1")
	}
	stream := func(workers int) string {
		var vs []Verdict
		for v, err := range StreamSpecs(ctx, CampaignConfig{Registry: reg, Workers: workers}, block) {
			if err == nil {
				t.Fatal("pre-cancelled stream yielded a nil error")
			}
			vs = append(vs, v)
		}
		return verdictJSON(t, vs)
	}
	// One lane block: workers 2 fans it out over two goroutines.
	if stream(1) != stream(2) {
		t.Error("pre-cancelled StreamSpecs: identity-filled verdicts differ between fan 1 and 2")
	}
}

// TestRunBlockFanPanicIsErrorVerdict trips a panic inside lane groups and
// a scalar unit. On a helper goroutine it must become the same error
// verdict as at fan 1 — the lane group's scalar fallback and RunWith's
// recovery both run on whichever goroutine drew the unit — never a crash.
func TestRunBlockFanPanicIsErrorVerdict(t *testing.T) {
	reg := tripRegistry(t, 15, func() { panic("trip") })
	block := tripBlock(t)
	first := RunBlock(context.Background(), block, RunOptions{Registry: reg})
	tripped := 0
	for _, v := range first {
		if v.Spec.Family == "trip" {
			if v.Outcome != "error" || v.Err != "panic: trip" {
				t.Fatalf("trip spec %s: verdict %+v, want a panic error verdict", v.ID, v)
			}
			tripped++
		}
	}
	if tripped != 6 {
		t.Fatalf("%d trip verdicts, want 6", tripped)
	}
	want := verdictJSON(t, first)
	for _, fan := range []int{2, 8} {
		for rep := 0; rep < 4; rep++ {
			if got := verdictJSON(t, RunBlock(context.Background(), block, RunOptions{Registry: reg, fan: fan})); got != want {
				t.Fatalf("fan %d rep %d: verdict JSON differs from fan 1", fan, rep)
			}
		}
	}
}

// TestStreamSpecsRingRightSized pins the spec ring's sizing: a 4-spec
// stream allocates slots for its one job only, not 8×workers slots of a
// full lane width (~3 MB at two workers).
func TestStreamSpecsRingRightSized(t *testing.T) {
	specs := make([]Spec, 4)
	for i := range specs {
		specs[i] = Spec{Version: Version, Ring: 6, Robots: 3, Algorithm: "pef3+",
			Placement: PlaceEven, Family: "static", Horizon: 20, Seed: uint64(i + 1)}
	}
	run := func() {
		n := 0
		for v, err := range StreamSpecs(context.Background(), CampaignConfig{Workers: 2}, specs) {
			if err != nil || !v.OK {
				t.Fatalf("spec %d: %+v, %v", n, v, err)
			}
			n++
		}
		if n != len(specs) {
			t.Fatalf("%d verdicts, want %d", n, len(specs))
		}
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const limit = 256 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("StreamSpecs over %d specs allocated %d bytes, want < %d", len(specs), got, limit)
	}
}
