package ring

import "math/bits"

// This file holds the word-level primitives of the lockstep engine: direct
// access to an EdgeSet's backing words and the 64×64 bit transpose that
// turns per-lane presence rows (one word per seed lane, bit e = edge e)
// into per-edge lane columns (one word per edge, bit l = lane l). All lane
// code indexes bits LSB-first, matching EdgeSet's own layout.

// Word returns the i-th 64-bit word of the set's backing storage: bit b of
// word i is set iff edge i*64+b is in the set.
func (s EdgeSet) Word(i int) uint64 { return s.words[i] }

// Words returns the number of backing words.
func (s EdgeSet) Words() int { return len(s.words) }

// SetWord overwrites the i-th backing word. Bits beyond the set's capacity
// are cleared, so the EdgeSet invariants (no phantom edges) hold for any
// input word. It is small enough to inline into the E_t kernels that call
// it once per word; an out-of-range i panics with the runtime's index
// error.
func (s *EdgeSet) SetWord(i int, w uint64) {
	if tail := uint(s.n) % wordBits; tail != 0 && i == len(s.words)-1 {
		w &= 1<<tail - 1
	}
	s.words[i] = w
}

// Transpose64 transposes the 64×64 bit matrix held in m in place, with
// LSB-first bit indexing: afterwards bit r of m[c] equals what bit c of
// m[r] was before. The lockstep engine uses it to convert lane rows of
// edge-presence bits into edge columns of lane bits. Rows at and above
// rows must be zero (the lanes no block fills); the rows and bits past
// the filled ones cost nothing, so the same word matrix serves any
// n ≤ 64 and any lane count.
func Transpose64(m *[64]uint64, rows int) {
	// Recursive block swap (Hacker's Delight transpose32, widened to 64
	// and mirrored for LSB-first indexing): at each step, swap the
	// upper-right and lower-left j×j sub-blocks of every 2j×2j block.
	// While j is at least the width p (a power of two) of the widest
	// row, every upper-right block is empty, so the swap is a fold: the
	// lower-left block moves up and only the rows below p stay live.
	// While j is at least the row bound q, every lower-left block is
	// empty: the upper-right block moves down, and only the first q rows
	// of each 2j rows hold bits. Where both hold, the step is a no-op.
	var or uint64
	for _, w := range m[:rows] {
		or |= w
	}
	if or == 0 {
		return
	}
	p := uint(1) << bits.Len(uint(bits.Len64(or))-1) // p >= width, p <= 64
	q := uint(1) << bits.Len(uint(rows)-1)           // q >= rows, q <= 64
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	for ; j != 0; j, mask = j>>1, mask^mask<<(j>>1) {
		switch {
		case j >= p && j >= q:
		case j >= p:
			for k := uint(0); k < j; k++ {
				m[k] |= m[k+j] << j
				m[k+j] = 0
			}
		case j >= q:
			for g := uint(0); g < p; g += 2 * j {
				for k := g; k < g+q; k++ {
					m[k+j] = m[k] >> j & mask
					m[k] &^= mask << j
				}
			}
		default:
			for k := uint(0); k < p; k = (k + j + 1) &^ j {
				t := ((m[k] >> j) ^ m[k+j]) & mask
				m[k+j] ^= t
				m[k] ^= t << j
			}
		}
	}
}
