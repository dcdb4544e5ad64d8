package ring

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsBelowMinSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1)
}

func TestDirectionOpposite(t *testing.T) {
	if CW.Opposite() != CCW || CCW.Opposite() != CW {
		t.Fatal("Opposite is not an involution on directions")
	}
	if !CW.Valid() || !CCW.Valid() || Direction(0).Valid() {
		t.Fatal("Valid misclassifies directions")
	}
}

func TestDirectionString(t *testing.T) {
	if CW.String() != "CW" || CCW.String() != "CCW" {
		t.Fatalf("unexpected direction strings %q %q", CW, CCW)
	}
	if Direction(5).String() == "" {
		t.Fatal("invalid direction should still render")
	}
}

func TestNodeNormalization(t *testing.T) {
	r := New(5)
	cases := []struct{ in, want int }{
		{0, 0}, {4, 4}, {5, 0}, {7, 2}, {-1, 4}, {-6, 4}, {10, 0},
	}
	for _, c := range cases {
		if got := r.Node(c.in); got != c.want {
			t.Errorf("Node(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextAndEdgeTowards(t *testing.T) {
	r := New(6)
	if r.Next(0, CW) != 1 || r.Next(0, CCW) != 5 {
		t.Fatal("Next broken at node 0")
	}
	if r.Next(5, CW) != 0 {
		t.Fatal("Next does not wrap clockwise")
	}
	if r.EdgeTowards(0, CW) != 0 || r.EdgeTowards(0, CCW) != 5 {
		t.Fatal("EdgeTowards broken at node 0")
	}
	if r.EdgeTowards(3, CW) != 3 || r.EdgeTowards(3, CCW) != 2 {
		t.Fatal("EdgeTowards broken at node 3")
	}
}

func TestEdgeEndpointsAndBetween(t *testing.T) {
	r := New(4)
	a, b := r.EdgeEndpoints(3)
	if a != 3 || b != 0 {
		t.Fatalf("EdgeEndpoints(3) = (%d,%d), want (3,0)", a, b)
	}
	e, ok := r.EdgeBetween(2, 3)
	if !ok || e != 2 {
		t.Fatalf("EdgeBetween(2,3) = (%d,%v), want (2,true)", e, ok)
	}
	e, ok = r.EdgeBetween(3, 2)
	if !ok || e != 2 {
		t.Fatalf("EdgeBetween(3,2) = (%d,%v), want (2,true)", e, ok)
	}
	if _, ok := r.EdgeBetween(0, 2); ok {
		t.Fatal("EdgeBetween accepted non-adjacent nodes")
	}
	if _, ok := r.EdgeBetween(1, 1); ok {
		t.Fatal("EdgeBetween accepted identical nodes")
	}
}

func TestDistances(t *testing.T) {
	r := New(7)
	if d := r.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3) = %d, want 3", d)
	}
	if d := r.Dist(0, 5); d != 2 {
		t.Fatalf("Dist(0,5) = %d, want 2", d)
	}
	if d := r.Dist(4, 4); d != 0 {
		t.Fatalf("Dist(4,4) = %d, want 0", d)
	}
}

func TestTowardsOf(t *testing.T) {
	r := New(6)
	if r.TowardsOf(0, 2) != CW {
		t.Fatal("TowardsOf(0,2) should be CW")
	}
	if r.TowardsOf(0, 5) != CCW {
		t.Fatal("TowardsOf(0,5) should be CCW")
	}
	if r.TowardsOf(0, 3) != CW {
		t.Fatal("TowardsOf tie should prefer CW")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TowardsOf(1,1) did not panic")
		}
	}()
	r.TowardsOf(1, 1)
}

func TestWalkAndPathNodes(t *testing.T) {
	r := New(5)
	if r.Walk(0, 7, CW) != 2 {
		t.Fatal("Walk CW wrap broken")
	}
	if r.Walk(0, 2, CCW) != 3 {
		t.Fatal("Walk CCW broken")
	}
	path := r.PathNodes(3, 1, CW)
	want := []int{3, 4, 0, 1}
	if len(path) != len(want) {
		t.Fatalf("PathNodes length %d, want %d", len(path), len(want))
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathNodes = %v, want %v", path, want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	prop := func(n uint8, a, b int) bool {
		size := int(n%62) + 2
		r := New(size)
		u, v := r.Node(a), r.Node(b)
		return r.Dist(u, v) == r.Dist(v, u) && r.Dist(u, v) <= size/2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextEdgeConsistencyProperty(t *testing.T) {
	// Crossing the edge EdgeTowards(v, d) from v must land on Next(v, d),
	// and the edge must be adjacent to both.
	prop := func(n uint8, a int, cw bool) bool {
		size := int(n%62) + 2
		r := New(size)
		v := r.Node(a)
		d := CW
		if !cw {
			d = CCW
		}
		e := r.EdgeTowards(v, d)
		x, y := r.EdgeEndpoints(e)
		next := r.Next(v, d)
		return (x == v && y == next) || (x == next && y == v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCWDistInverseProperty(t *testing.T) {
	prop := func(n uint8, a, b int) bool {
		size := int(n%62) + 2
		r := New(size)
		u, v := r.Node(a), r.Node(b)
		cw := r.CWDist(u, v)
		return r.Walk(u, cw, CW) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeMatchesModulo pins Node's division-free paths to the plain
// modulo definitions of Node, Next, EdgeTowards, EdgeEndpoints, CWDist and
// EdgeBetween over arguments well beyond [-1, n].
func TestNodeMatchesModulo(t *testing.T) {
	for n := 2; n <= 130; n++ {
		r := New(n)
		mod := func(v int) int { return (v%n + n) % n }
		for v := -3 * n; v <= 3*n; v++ {
			if got := r.Node(v); got != mod(v) {
				t.Fatalf("n=%d: Node(%d) = %d, want %d", n, v, got, mod(v))
			}
			for _, d := range []Direction{CW, CCW} {
				if got := r.Next(v, d); got != mod(v+int(d)) {
					t.Fatalf("n=%d: Next(%d, %v) = %d, want %d", n, v, d, got, mod(v+int(d)))
				}
			}
			if got := r.EdgeTowards(v, CW); got != v {
				t.Fatalf("n=%d: EdgeTowards(%d, CW) = %d, want %d", n, v, got, v)
			}
			if got := r.EdgeTowards(v, CCW); got != mod(v-1) {
				t.Fatalf("n=%d: EdgeTowards(%d, CCW) = %d, want %d", n, v, got, mod(v-1))
			}
			if lo, hi := r.EdgeEndpoints(v); lo != v || hi != mod(v+1) {
				t.Fatalf("n=%d: EdgeEndpoints(%d) = (%d, %d), want (%d, %d)", n, v, lo, hi, v, mod(v+1))
			}
			for u := 0; u < n; u++ {
				if got := r.CWDist(u, v); got != mod(v-u) {
					t.Fatalf("n=%d: CWDist(%d, %d) = %d, want %d", n, u, v, got, mod(v-u))
				}
				want, wantOK := 0, false
				switch {
				case mod(u+1) == v:
					want, wantOK = u, true
				case mod(v+1) == u:
					want, wantOK = v, true
				}
				if got, ok := r.EdgeBetween(u, v); got != want || ok != wantOK {
					t.Fatalf("n=%d: EdgeBetween(%d, %d) = (%d, %v), want (%d, %v)", n, u, v, got, ok, want, wantOK)
				}
			}
		}
	}
}
