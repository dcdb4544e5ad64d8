package dynamics

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"pef/internal/dyngraph"
	"pef/internal/ring"
)

func TestGenerateMarkovShape(t *testing.T) {
	g, err := GenerateMarkov(6, 0.4, 0.2, 9, 500)
	if err != nil {
		t.Fatal(err)
	}
	if g.Horizon() != 500 || g.Ring().Size() != 6 {
		t.Fatalf("horizon=%d n=%d", g.Horizon(), g.Ring().Size())
	}
	// All edges start present.
	if !g.Snapshot(0).IsFull() {
		t.Fatalf("initial snapshot %v not full", g.Snapshot(0))
	}
}

func TestGenerateMarkovValidation(t *testing.T) {
	cases := []struct{ up, down float64 }{
		{0, 0.5}, {-0.1, 0.5}, {1.5, 0.5}, {0.5, -0.1}, {0.5, 1.5},
	}
	for _, c := range cases {
		if _, err := GenerateMarkov(4, c.up, c.down, 1, 10); err == nil {
			t.Errorf("up=%v down=%v accepted", c.up, c.down)
		}
	}
	if _, err := GenerateMarkov(4, 0.5, 0.5, 1, -1); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestGenerateMarkovDeterministic(t *testing.T) {
	a, _ := GenerateMarkov(5, 0.3, 0.3, 42, 200)
	b, _ := GenerateMarkov(5, 0.3, 0.3, 42, 200)
	if dyngraph.CommonPrefix(a, b) != 200 {
		t.Fatal("same seed diverged")
	}
	c, _ := GenerateMarkov(5, 0.3, 0.3, 43, 200)
	if dyngraph.CommonPrefix(a, c) == 200 {
		t.Fatal("different seeds identical")
	}
}

func TestGenerateMarkovBurstiness(t *testing.T) {
	// With small transition probabilities, consecutive instants should
	// mostly agree — the defining property versus Bernoulli.
	g, err := GenerateMarkov(4, 0.2, 0.2, 7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for tt := 1; tt < 2000; tt++ {
		for e := 0; e < 4; e++ {
			total++
			if g.Present(e, tt) == g.Present(e, tt-1) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.7 {
		t.Fatalf("agreement fraction %.2f too low for a bursty chain", frac)
	}
}

func TestGenerateMarkovConnectedOverTime(t *testing.T) {
	g, err := GenerateMarkov(6, 0.5, 0.2, 3, 600)
	if err != nil {
		t.Fatal(err)
	}
	rep := dyngraph.VerifyConnectedOverTime(g, 600, []int{0, 200, 400})
	if !rep.OK {
		t.Fatalf("Markov trace not connected-over-time: %+v", rep.Failures)
	}
}

func TestMarkovSpec(t *testing.T) {
	sp := MarkovSpec(0.5, 0.3)
	g := sp.Build(5, 11)
	if g.Ring().Size() != 5 {
		t.Fatal("spec built wrong ring")
	}
	if sp.Name == "" {
		t.Fatal("empty spec name")
	}
}

func TestMarkovStreamMatchesMaterialized(t *testing.T) {
	const n, horizon = 6, 400
	full, err := GenerateMarkov(n, 0.4, 0.25, 9, horizon)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewMarkovStream(n, 0.4, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Forward access (the simulator's pattern) must reproduce the
	// materialized chain bit for bit.
	for tt := 0; tt < horizon; tt++ {
		for e := 0; e < n; e++ {
			if stream.Present(e, tt) != full.Present(e, tt) {
				t.Fatalf("stream diverges from materialized chain at edge %d t=%d", e, tt)
			}
		}
	}
	// The newest instant stays readable; reads behind it panic rather
	// than lie.
	if stream.Present(0, horizon-1) != full.Present(0, horizon-1) {
		t.Fatal("newest-instant read mismatch")
	}
	for _, behind := range []int{horizon - 2, 0} {
		mustPanicBehind(t, func() { stream.Present(0, behind) })
	}
}

// mustPanicBehind requires read to panic: it reads a markov stream behind
// its newest instant.
func mustPanicBehind(t *testing.T, read func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("read behind the newest instant did not panic")
		}
	}()
	read()
}

// TestGenerateMarkovPinnedDigests pins whole traces against digests taken
// from the original float-comparison chain (src.Bool per transition), so
// the integer-threshold kernel stays byte-identical to every recorded
// campaign — including multi-word rings and the absorbing corners.
func TestGenerateMarkovPinnedDigests(t *testing.T) {
	cases := []struct {
		n        int
		up, down float64
		seed     uint64
		horizon  int
		digest   uint64
	}{
		{6, 0.4, 0.25, 9, 400, 0xa25f08a1fdbe080d},
		{11, 1, 0, 3, 100, 0xfa182bad5f2bbabd},
		{13, 1.0 / 3, 1, 7, 300, 0xb07de1e257db0b00},
		{65, 0.3, 0.1, 5, 300, 0x1d0383c197c90190},
		{70, 0.999999, 0.5000000000000001, 17, 200, 0x232aff972079fdcc},
	}
	for _, c := range cases {
		g, err := GenerateMarkov(c.n, c.up, c.down, c.seed, c.horizon)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for tt := 0; tt < c.horizon; tt++ {
			s := g.Snapshot(tt)
			for wi := 0; wi < s.Words(); wi++ {
				binary.LittleEndian.PutUint64(buf[:], s.Word(wi))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("n=%d up=%v down=%v seed=%d: trace digest %#x, pinned %#x",
				c.n, c.up, c.down, c.seed, got, c.digest)
		}
	}
}

// TestMarkovStreamMixedAccess interleaves the three read paths on one
// stream: they share the chain state, so each sees the materialized chain.
func TestMarkovStreamMixedAccess(t *testing.T) {
	const n, horizon = 9, 300
	full, err := GenerateMarkov(n, 0.3, 0.4, 21, horizon)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewMarkovStream(n, 0.3, 0.4, 21)
	if err != nil {
		t.Fatal(err)
	}
	var dst ring.EdgeSet
	for i, tt := 0, 0; tt < horizon; i, tt = i+1, tt+1+i%2 { // skips exercise multi-step advances
		want := full.Snapshot(tt)
		switch i % 3 {
		case 0:
			for e := 0; e < n; e++ {
				if stream.Present(e, tt) != want.Contains(e) {
					t.Fatalf("Present(%d, %d) diverges", e, tt)
				}
			}
		default:
			stream.EdgesAtInto(tt, &dst)
			if !dst.Equal(want) {
				t.Fatalf("EdgesAtInto(%d) = %v, want %v", tt, dst, want)
			}
		}
		// The previous instant is behind the newest one, whichever path
		// generated it.
		if tt > 0 {
			mustPanicBehind(t, func() { stream.Present(0, tt-1) })
			mustPanicBehind(t, func() { stream.EdgesAtInto(tt-1, &dst) })
		}
	}
	if stream.Present(0, -1) {
		t.Fatal("negative instant has edges")
	}
	if stream.EdgesAtInto(-1, &dst); !dst.IsEmpty() {
		t.Fatalf("EdgesAtInto(-1) = %v, want empty", dst)
	}
}

func TestMarkovStreamRejectsBadProbabilities(t *testing.T) {
	if _, err := NewMarkovStream(4, 0, 0.5, 1); err == nil {
		t.Fatal("up=0 accepted")
	}
	if _, err := NewMarkovStream(4, 0.5, 1.5, 1); err == nil {
		t.Fatal("down=1.5 accepted")
	}
}
