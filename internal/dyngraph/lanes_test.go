package dyngraph

import (
	"testing"

	"pef/internal/ring"
)

func TestStaticAndEventualMissingInPlace(t *testing.T) {
	const n = 9
	graphs := []struct {
		name string
		g    InPlaceGraph
	}{
		{"static", NewStatic(n)},
		{"eventual-missing", NewEventualMissing(NewStatic(n), 4, 10)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			var dst ring.EdgeSet
			for instant := -1; instant < 30; instant++ {
				tc.g.EdgesAtInto(instant, &dst)
				for e := 0; e < n; e++ {
					if got, want := dst.Contains(e), tc.g.Present(e, instant); got != want {
						t.Fatalf("t=%d edge %d: in-place %v, Present %v", instant, e, got, want)
					}
				}
			}
		})
	}
}

// TestLaneColumns checks column materialization against per-lane Present:
// bit l of cols[e] must equal lane l's presence of edge e, retired lanes
// must contribute zero bits, and only lanes whose graph has a kernel count
// as kernel lanes.
func TestLaneColumns(t *testing.T) {
	const n, lanes = 7, 6
	graphs := make([]EvolvingGraph, lanes)
	for l := range graphs {
		if l%2 == 0 {
			graphs[l] = NewStatic(n)
		} else {
			graphs[l] = NewEventualMissing(NewStatic(n), l%n, 3)
		}
	}
	// Lane 5 has only Present: the fallback path.
	graphs[5] = Func{R: ring.New(n), F: func(e, t int) bool { return (e+t)%3 != 0 }}
	sets := make([]ring.EdgeSet, lanes)
	cols := make([]uint64, n)
	active := uint64(1<<lanes) - 1
	active &^= 1 << 2 // lane 2 retired
	for instant := 0; instant < 8; instant++ {
		if got := LaneColumns(graphs, sets, active, instant, cols); got != 4 {
			t.Fatalf("t=%d: %d kernel lanes, want 4 (lane 5 falls back)", instant, got)
		}
		for e := 0; e < n; e++ {
			for l := 0; l < lanes; l++ {
				want := false
				if active&(1<<uint(l)) != 0 {
					want = graphs[l].Present(e, instant)
				}
				if got := cols[e]&(1<<uint(l)) != 0; got != want {
					t.Fatalf("t=%d edge %d lane %d: col bit %v, want %v", instant, e, l, got, want)
				}
			}
			if cols[e]>>lanes != 0 {
				t.Fatalf("t=%d edge %d: bits set beyond lane count: %#x", instant, e, cols[e])
			}
		}
	}
}

// TestEdgeWordMatchesEdgesInto checks that the presence word LaneColumns
// hands the lockstep engine for a lane equals the first word of the set
// EdgesInto gives the scalar engine, for every graph in this package.
func TestEdgeWordMatchesEdgesInto(t *testing.T) {
	const n = 9
	rec := NewRecorded(n)
	for i := 0; i < 12; i++ {
		set := ring.NewEdgeSet(n)
		for e := 0; e < n; e++ {
			if (e+i)%3 != 0 {
				set.Add(e)
			}
		}
		rec.Append(set)
	}
	graphs := []struct {
		name string
		g    InPlaceGraph
	}{
		{"static", NewStatic(n)},
		{"eventual-missing", NewEventualMissing(NewStatic(n), 4, 10)},
		{"recorded", rec},
		{"recorded-empty", NewRecorded(n)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			lanes := []EvolvingGraph{tc.g}
			sets := make([]ring.EdgeSet, 1)
			cols := make([]uint64, n)
			var dst ring.EdgeSet
			for instant := -1; instant < 30; instant++ {
				if k := LaneColumns(lanes, sets, 1, instant, cols); k != 1 {
					t.Fatalf("t=%d: %d kernel lanes, want 1", instant, k)
				}
				var w uint64
				for e, c := range cols {
					w |= (c & 1) << uint(e)
				}
				EdgesInto(tc.g, instant, &dst)
				if want := dst.Word(0); w != want {
					t.Fatalf("t=%d: lane word %#x, set word %#x", instant, w, want)
				}
			}
		})
	}
}
