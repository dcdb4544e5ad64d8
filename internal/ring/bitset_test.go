package ring

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(10)
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(9)
	if !s.Contains(3) || !s.Contains(9) || s.Contains(4) {
		t.Fatal("membership wrong after Add")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	s.Remove(3)
	if s.Contains(3) || s.Count() != 1 {
		t.Fatal("Remove failed")
	}
	if s.Contains(-1) || s.Contains(10) {
		t.Fatal("out-of-range Contains must be false")
	}
}

func TestEdgeSetAddPanicsOutOfRange(t *testing.T) {
	s := NewEdgeSet(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(4) did not panic")
		}
	}()
	s.Add(4)
}

func TestFullEdgeSet(t *testing.T) {
	s := FullEdgeSet(70) // crosses a word boundary
	if !s.IsFull() || s.Count() != 70 {
		t.Fatalf("FullEdgeSet(70): count=%d full=%v", s.Count(), s.IsFull())
	}
	if len(s.Missing()) != 0 {
		t.Fatal("full set reports missing edges")
	}
}

// TestEdgeSetFill pins Fill against a per-edge-built full set at sizes
// around the word boundaries, including the empty set, and checks that no
// bit beyond n is ever set (Count, Equal and IsFull all read whole words).
func TestEdgeSetFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128} {
		want := NewEdgeSet(n)
		for e := 0; e < n; e++ {
			want.Add(e)
		}
		s := NewEdgeSet(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Fill count = %d", n, s.Count())
		}
		if !s.Equal(want) || !FullEdgeSet(n).Equal(want) {
			t.Fatalf("n=%d: Fill = %v, want %v", n, s, want)
		}
		for i, w := range s.words {
			if i*wordBits+bits.Len64(w) > n {
				t.Fatalf("n=%d: word %d = %#x has bits beyond n", n, i, w)
			}
		}
	}
}

// TestEdgeSetFillAllocFree guards the adversaries' per-round refill: Fill
// rewrites the existing words and never allocates.
func TestEdgeSetFillAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewEdgeSet(100)
	if allocs := testing.AllocsPerRun(100, s.Fill); allocs != 0 {
		t.Fatalf("Fill allocates %v objects, want 0", allocs)
	}
}

func TestEdgeSetOfAndString(t *testing.T) {
	s := EdgeSetOf(8, 1, 5, 5)
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if got := s.String(); got != "{1,5}/8" {
		t.Fatalf("String = %q", got)
	}
}

func TestWithWithout(t *testing.T) {
	s := FullEdgeSet(6)
	w := s.Without(2, 4)
	if w.Contains(2) || w.Contains(4) || !s.Contains(2) {
		t.Fatal("Without mutated receiver or failed")
	}
	back := w.With(2, 4)
	if !back.Equal(s) {
		t.Fatal("With did not restore the set")
	}
	missing := w.Missing()
	if len(missing) != 2 || missing[0] != 2 || missing[1] != 4 {
		t.Fatalf("Missing = %v", missing)
	}
}

func TestUnionIntersect(t *testing.T) {
	a := EdgeSetOf(8, 0, 1, 2)
	b := EdgeSetOf(8, 2, 3)
	if got := a.Union(b).Edges(); len(got) != 4 {
		t.Fatalf("Union edges = %v", got)
	}
	inter := a.Intersect(b)
	if inter.Count() != 1 || !inter.Contains(2) {
		t.Fatalf("Intersect = %v", inter)
	}
}

func TestEdgeSetSizeMismatchPanics(t *testing.T) {
	a, b := NewEdgeSet(4), NewEdgeSet(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Union across sizes did not panic")
		}
	}()
	a.Union(b)
}

func TestConnectedAsRing(t *testing.T) {
	if !FullEdgeSet(5).ConnectedAsRing() {
		t.Fatal("full ring must be connected")
	}
	if !FullEdgeSet(5).Without(2).ConnectedAsRing() {
		t.Fatal("ring minus one edge must be connected")
	}
	if FullEdgeSet(5).Without(1, 3).ConnectedAsRing() {
		t.Fatal("ring minus two edges must be disconnected")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := EdgeSetOf(6, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEdgeSetRoundTripProperty(t *testing.T) {
	// Adding then removing an element restores the original set.
	prop := func(n uint8, e int, seed uint64) bool {
		size := int(n%100) + 1
		s := NewEdgeSet(size)
		for i := 0; i < size; i++ {
			if seed>>(uint(i)%64)&1 == 1 {
				s.Add(i)
			}
		}
		x := ((e % size) + size) % size
		before := s.Contains(x)
		c := s.Clone()
		c.Add(x)
		if !c.Contains(x) {
			return false
		}
		c.Remove(x)
		if c.Contains(x) {
			return false
		}
		if before {
			c.Add(x)
		}
		return c.Equal(s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesMissingPartitionProperty(t *testing.T) {
	prop := func(n uint8, seed uint64) bool {
		size := int(n%80) + 1
		s := NewEdgeSet(size)
		for i := 0; i < size; i++ {
			if seed>>(uint(i)%64)&1 == 1 {
				s.Add(i)
			}
		}
		return len(s.Edges())+len(s.Missing()) == size
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSetClearAndCopyFrom(t *testing.T) {
	s := EdgeSetOf(70, 0, 5, 64, 69)
	s.Clear()
	if !s.IsEmpty() || s.Size() != 70 {
		t.Fatalf("Clear left %v", s)
	}
	src := EdgeSetOf(70, 1, 63, 68)
	s.CopyFrom(src)
	if !s.Equal(src) {
		t.Fatalf("CopyFrom = %v, want %v", s, src)
	}
	// CopyFrom must be a deep copy: mutating the source afterwards may not
	// leak through.
	src.Add(2)
	if s.Contains(2) {
		t.Fatal("CopyFrom shares storage with its source")
	}
	// Capacity changes reallocate.
	var small EdgeSet
	small.CopyFrom(EdgeSetOf(3, 1))
	if small.Size() != 3 || !small.Contains(1) || small.Contains(0) {
		t.Fatalf("CopyFrom into zero set = %v", small)
	}
}
