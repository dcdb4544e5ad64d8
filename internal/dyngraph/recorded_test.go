package dyngraph

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"pef/internal/prng"
	"pef/internal/ring"
)

func TestRecordMatchesSource(t *testing.T) {
	src := NewEventualMissing(NewStatic(5), 3, 4)
	rec := Record(src, 10)
	if rec.Horizon() != 10 {
		t.Fatalf("horizon = %d", rec.Horizon())
	}
	for tt := 0; tt < 10; tt++ {
		for e := 0; e < 5; e++ {
			if rec.Present(e, tt) != src.Present(e, tt) {
				t.Fatalf("mismatch at e=%d t=%d", e, tt)
			}
		}
	}
}

func TestRecordedClampsBeyondHorizon(t *testing.T) {
	rec := NewRecorded(4)
	rec.Append(ring.EdgeSetOf(4, 0, 1))
	rec.Append(ring.EdgeSetOf(4, 2))
	// Beyond the horizon the last snapshot persists.
	if !rec.Present(2, 100) || rec.Present(0, 100) {
		t.Fatal("clamping semantics wrong")
	}
	if rec.Present(0, -1) {
		t.Fatal("negative time must be absent")
	}
	empty := NewRecorded(4)
	if empty.Present(0, 0) {
		t.Fatal("empty trace has no edges")
	}
	if !empty.Snapshot(3).IsEmpty() {
		t.Fatal("empty trace snapshot must be empty")
	}
}

func TestAppendSizeMismatchPanics(t *testing.T) {
	rec := NewRecorded(4)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	rec.Append(ring.NewEdgeSet(5))
}

func TestRecordedJSONRoundTrip(t *testing.T) {
	src := NewRecorded(6)
	src.Append(ring.EdgeSetOf(6, 0, 2, 4))
	src.Append(ring.EdgeSetOf(6))
	src.Append(ring.FullEdgeSet(6))
	data, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var back Recorded
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Horizon() != 3 || back.Ring().Size() != 6 {
		t.Fatalf("decoded horizon=%d n=%d", back.Horizon(), back.Ring().Size())
	}
	for tt := 0; tt < 3; tt++ {
		if !back.Snapshot(tt).Equal(src.Snapshot(tt)) {
			t.Fatalf("instant %d differs after round trip", tt)
		}
	}
}

func TestRecordedJSONRejectsGarbage(t *testing.T) {
	var rec Recorded
	for _, bad := range []string{
		`{"nodes":1,"snapshots":[]}`,    // below MinSize
		`{"nodes":4,"snapshots":[[9]]}`, // invalid edge
		`{"nodes":"x"}`,                 // wrong type
	} {
		if err := json.Unmarshal([]byte(bad), &rec); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestRecordedJSONRoundTripProperty(t *testing.T) {
	prop := func(seed uint64, n8 uint8, h8 uint8) bool {
		n := int(n8%14) + 2
		h := int(h8 % 20)
		src := NewRecorded(n)
		s := prng.NewSource(seed)
		for i := 0; i < h; i++ {
			set := ring.NewEdgeSet(n)
			for e := 0; e < n; e++ {
				if s.Bool(0.5) {
					set.Add(e)
				}
			}
			src.Append(set)
		}
		data, err := json.Marshal(src)
		if err != nil {
			return false
		}
		var back Recorded
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.Horizon() != src.Horizon() {
			return false
		}
		for tt := 0; tt < src.Horizon(); tt++ {
			if !back.Snapshot(tt).Equal(src.Snapshot(tt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRemovals(t *testing.T) {
	rec := NewRecorded(4)
	rows := [][]int{
		{0, 1, 2, 3},
		{1, 2},
		{1, 2},
		{0, 1, 2, 3},
		{0, 2, 3},
	}
	for _, row := range rows {
		rec.Append(ring.EdgeSetOf(4, row...))
	}
	removals := rec.DecomposeRemovals()
	// Edge 0 absent during [1,3), edge 1 during [4,5), edge 3 during [1,3).
	if len(removals) != 3 {
		t.Fatalf("removals = %+v", removals)
	}
	back := NewWithout(NewStatic(4), removals...)
	for tt := 0; tt < rec.Horizon(); tt++ {
		for e := 0; e < 4; e++ {
			if back.Present(e, tt) != rec.Present(e, tt) {
				t.Fatalf("decomposition mismatch at e=%d t=%d", e, tt)
			}
		}
	}
}

func TestDecomposeRemovalsProperty(t *testing.T) {
	prop := func(seed uint64, n8, h8 uint8) bool {
		n := int(n8%10) + 2
		h := int(h8%24) + 1
		rec := NewRecorded(n)
		s := prng.NewSource(seed)
		for i := 0; i < h; i++ {
			set := ring.NewEdgeSet(n)
			for e := 0; e < n; e++ {
				if s.Bool(0.6) {
					set.Add(e)
				}
			}
			rec.Append(set)
		}
		back := NewWithout(NewStatic(n), rec.DecomposeRemovals()...)
		for tt := 0; tt < h; tt++ {
			for e := 0; e < n; e++ {
				if back.Present(e, tt) != rec.Present(e, tt) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommonPrefix(t *testing.T) {
	a := NewRecorded(4)
	b := NewRecorded(4)
	for i := 0; i < 5; i++ {
		a.Append(ring.FullEdgeSet(4))
		b.Append(ring.FullEdgeSet(4))
	}
	if got := CommonPrefix(a, b); got != 5 {
		t.Fatalf("identical traces: prefix %d", got)
	}
	b.Append(ring.EdgeSetOf(4, 1))
	a.Append(ring.FullEdgeSet(4))
	if got := CommonPrefix(a, b); got != 5 {
		t.Fatalf("diverging traces: prefix %d", got)
	}
	c := NewRecorded(5)
	if got := CommonPrefix(a, c); got != 0 {
		t.Fatalf("different sizes: prefix %d", got)
	}
}
