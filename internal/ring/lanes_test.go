package ring

import (
	"math/bits"
	"testing"

	"pef/internal/prng"
)

// naiveTranspose64 is the obvious reference: bit r of out[c] = bit c of
// in[r].
func naiveTranspose64(in [64]uint64) [64]uint64 {
	var out [64]uint64
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if in[r]&(1<<uint(c)) != 0 {
				out[c] |= 1 << uint(r)
			}
		}
	}
	return out
}

// TestTranspose64MatchesNaive covers full-width rows and every narrower
// row width, whose empty blocks Transpose64 folds instead of swapping.
func TestTranspose64MatchesNaive(t *testing.T) {
	src := prng.NewSource(0x7A13)
	for trial := 0; trial < 200; trial++ {
		width := uint(64 - trial%65) // 64 down to 0, then again
		var m [64]uint64
		for i := range m {
			m[i] = src.Uint64() & (1<<width - 1) // all bits at width 64
		}
		want := naiveTranspose64(m)
		got := m
		Transpose64(&got, 64)
		if got != want {
			t.Fatalf("trial %d: transpose mismatch", trial)
		}
		// An involution: transposing twice restores the input.
		Transpose64(&got, 64)
		if got != m {
			t.Fatalf("trial %d: double transpose is not the identity", trial)
		}
	}
}

// fullTranspose64 is Transpose64 before it took a row bound: it folds by
// row width only and walks all 64 rows.
func fullTranspose64(m *[64]uint64) {
	var or uint64
	for _, w := range m {
		or |= w
	}
	p := uint(1) << bits.Len(uint(bits.Len64(or))-1)
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	for ; j != 0; j, mask = j>>1, mask^mask<<(j>>1) {
		if j >= p {
			for k := uint(0); k < j; k++ {
				m[k] |= m[k+j] << j
				m[k+j] = 0
			}
			continue
		}
		for k := uint(0); k < p; k = (k + j + 1) &^ j {
			t := ((m[k] >> j) ^ m[k+j]) & mask
			m[k+j] ^= t
			m[k] ^= t << j
		}
	}
}

// TestTranspose64RowBoundMatchesFull checks the row-bounded transpose
// against the full one for every row count 1–64 and row width 2–64,
// with the last row always filled so the bound is tight.
func TestTranspose64RowBoundMatchesFull(t *testing.T) {
	src := prng.NewSource(0xB0B)
	for rows := 1; rows <= 64; rows++ {
		for width := uint(2); width <= 64; width++ {
			var m [64]uint64
			for i := range m[:rows] {
				m[i] = src.Uint64() & (1<<width - 1)
			}
			m[rows-1] |= 1 << (width - 1)
			want := m
			fullTranspose64(&want)
			got := m
			Transpose64(&got, rows)
			if got != want {
				t.Fatalf("rows %d width %d: bounded transpose differs from the full one", rows, width)
			}
			// A loose bound gives the same answer.
			got = m
			Transpose64(&got, 64)
			if got != want {
				t.Fatalf("rows %d width %d: transpose with bound 64 differs", rows, width)
			}
		}
	}
}

func TestTranspose64SingleBit(t *testing.T) {
	for r := 0; r < 64; r += 7 {
		for c := 0; c < 64; c += 5 {
			var m [64]uint64
			m[r] = 1 << uint(c)
			Transpose64(&m, 64)
			for i := range m {
				want := uint64(0)
				if i == c {
					want = 1 << uint(r)
				}
				if m[i] != want {
					t.Fatalf("bit (%d,%d): word %d = %#x, want %#x", r, c, i, m[i], want)
				}
			}
		}
	}
}

func TestEdgeSetWordAccess(t *testing.T) {
	s := NewEdgeSet(10)
	s.Add(0)
	s.Add(9)
	if got := s.Word(0); got != 1|1<<9 {
		t.Fatalf("Word(0) = %#x, want %#x", got, uint64(1|1<<9))
	}
	if s.Words() != 1 {
		t.Fatalf("Words() = %d, want 1", s.Words())
	}
	// SetWord masks bits past the capacity so invariants hold.
	s.SetWord(0, ^uint64(0))
	if got := s.Count(); got != 10 {
		t.Fatalf("Count after SetWord = %d, want 10", got)
	}
	for e := 0; e < 10; e++ {
		if !s.Contains(e) {
			t.Fatalf("edge %d missing after SetWord", e)
		}
	}

	big := NewEdgeSet(64)
	big.SetWord(0, ^uint64(0))
	if big.Count() != 64 {
		t.Fatalf("64-edge Count = %d, want 64", big.Count())
	}
}
