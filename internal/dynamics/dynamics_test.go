package dynamics

import (
	"testing"
	"testing/quick"

	"pef/internal/dyngraph"
)

func TestBernoulliDeterministicAndRandomAccess(t *testing.T) {
	g := NewBernoulli(6, 0.5, 42)
	h := NewBernoulli(6, 0.5, 42)
	for tt := 0; tt < 100; tt++ {
		for e := 0; e < 6; e++ {
			if g.Present(e, tt) != h.Present(e, tt) {
				t.Fatal("same seed must give same schedule")
			}
		}
	}
	// Random access: querying out of order must not change answers.
	before := g.Present(3, 77)
	_ = g.Present(3, 5)
	if g.Present(3, 77) != before {
		t.Fatal("Present is not a pure function of (e,t)")
	}
	// Different seeds should differ somewhere on a sizable window.
	d := NewBernoulli(6, 0.5, 43)
	same := true
	for tt := 0; tt < 64 && same; tt++ {
		for e := 0; e < 6; e++ {
			if g.Present(e, tt) != d.Present(e, tt) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewBernoulli(4, 0.7, 1)
	hits, total := 0, 0
	for tt := 0; tt < 4000; tt++ {
		for e := 0; e < 4; e++ {
			total++
			if g.Present(e, tt) {
				hits++
			}
		}
	}
	freq := float64(hits) / float64(total)
	if freq < 0.65 || freq > 0.75 {
		t.Fatalf("empirical presence frequency %.3f far from 0.7", freq)
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	always := NewBernoulli(3, 1.0, 9)
	never := NewBernoulli(3, 0.0, 9)
	for tt := 0; tt < 50; tt++ {
		for e := 0; e < 3; e++ {
			if !always.Present(e, tt) {
				t.Fatal("p=1 edge absent")
			}
			if never.Present(e, tt) {
				t.Fatal("p=0 edge present")
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("p=2 accepted")
		}
	}()
	NewBernoulli(3, 2.0, 0)
}

func TestPeriodicSchedule(t *testing.T) {
	p, err := NewPeriodic(2, [][]bool{
		{true, false},
		{false, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	wants0 := []bool{true, false, true, false, true, false}
	wants1 := []bool{false, false, true, false, false, true}
	for tt := 0; tt < 6; tt++ {
		if p.Present(0, tt) != wants0[tt] || p.Present(1, tt) != wants1[tt] {
			t.Fatalf("t=%d: got (%v,%v)", tt, p.Present(0, tt), p.Present(1, tt))
		}
	}
}

func TestPeriodicValidation(t *testing.T) {
	if _, err := NewPeriodic(2, [][]bool{{true}}); err == nil {
		t.Fatal("wrong pattern count accepted")
	}
	if _, err := NewPeriodic(1, [][]bool{{}}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := NewPeriodic(1, [][]bool{{false, false}}); err == nil {
		t.Fatal("never-present pattern accepted")
	}
}

func TestPeriodicCopiesPatterns(t *testing.T) {
	pat := [][]bool{{true, false}, {true}}
	p, err := NewPeriodic(2, pat)
	if err != nil {
		t.Fatal(err)
	}
	pat[0][1] = true
	if p.Present(0, 1) {
		t.Fatal("pattern mutation leaked into Periodic")
	}
}

func TestTIntervalConnectedEveryInstant(t *testing.T) {
	g := NewTInterval(7, 4, 11)
	for tt := 0; tt < 400; tt++ {
		if !dyngraph.EdgesAt(g, tt).ConnectedAsRing() {
			t.Fatalf("snapshot at t=%d disconnected", tt)
		}
	}
}

func TestTIntervalStableWithinWindows(t *testing.T) {
	g := NewTInterval(6, 5, 3)
	for w := 0; w < 60; w++ {
		base := dyngraph.EdgesAt(g, w*5)
		for i := 1; i < 5; i++ {
			if !dyngraph.EdgesAt(g, w*5+i).Equal(base) {
				t.Fatalf("window %d not stable at offset %d", w, i)
			}
		}
	}
}

func TestTIntervalEveryEdgeRecurrent(t *testing.T) {
	g := NewTInterval(5, 2, 7)
	const horizon = 2000
	for e := 0; e < 5; e++ {
		if _, ok := dyngraph.LastPresence(g, e, horizon); !ok {
			t.Fatalf("edge %d never present on horizon", e)
		}
		if run := dyngraph.MaxAbsenceRun(g, e, horizon); run > 20*2 {
			t.Fatalf("edge %d has suspicious absence run %d", e, run)
		}
	}
}

func TestBoundedRecurrenceForcesPresence(t *testing.T) {
	// Base: never present. The wrapper must still force each edge once per
	// window of delta.
	base := NewBernoulli(5, 0.0, 3)
	g := NewBoundedRecurrence(base, 4, 9)
	if g.Delta() != 4 {
		t.Fatal("Delta accessor wrong")
	}
	for e := 0; e < 5; e++ {
		for w := 0; w < 50; w++ {
			found := false
			for i := 0; i < 4; i++ {
				if g.Present(e, w*4+i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d absent during window %d", e, w)
			}
		}
	}
	if delta, ok := dyngraph.RecurrenceBound(g, 400); !ok || delta > 8 {
		t.Fatalf("recurrence bound = %d,%v", delta, ok)
	}
}

func TestBoundedRecurrencePassesBasePresence(t *testing.T) {
	base := NewBernoulli(4, 1.0, 3)
	g := NewBoundedRecurrence(base, 16, 9)
	for tt := 0; tt < 64; tt++ {
		for e := 0; e < 4; e++ {
			if !g.Present(e, tt) {
				t.Fatal("wrapper suppressed base presence")
			}
		}
	}
}

func TestChainSemantics(t *testing.T) {
	c := NewChain(dyngraph.NewStatic(5), 2)
	if c.CutEdge() != 2 {
		t.Fatal("CutEdge wrong")
	}
	for tt := 0; tt < 50; tt++ {
		if c.Present(2, tt) {
			t.Fatal("cut edge present")
		}
		for _, e := range []int{0, 1, 3, 4} {
			if !c.Present(e, tt) {
				t.Fatalf("edge %d absent", e)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid cut edge accepted")
		}
	}()
	NewChain(dyngraph.NewStatic(5), 7)
}

func TestRovingMissing(t *testing.T) {
	g := NewRovingMissing(4, 3)
	for tt := 0; tt < 48; tt++ {
		s := dyngraph.EdgesAt(g, tt)
		if s.Count() != 3 {
			t.Fatalf("t=%d: %d edges present, want 3", tt, s.Count())
		}
		wantMissing := (tt / 3) % 4
		if s.Contains(wantMissing) {
			t.Fatalf("t=%d: edge %d should be the missing one", tt, wantMissing)
		}
	}
}

func TestStandardSuiteConnectedOverTime(t *testing.T) {
	// Every workload of the standard suite must be connected-over-time on
	// the horizons the harness uses. The journey check reads instants out
	// of order, so each member is recorded first (the streaming markov
	// member only serves forward reads).
	const horizon = 400
	for _, sp := range StandardSuite() {
		for _, n := range []int{3, 6} {
			g := dyngraph.Record(sp.Build(n, 123), horizon)
			rep := dyngraph.VerifyConnectedOverTime(g, horizon, []int{0, 100, 200})
			if !rep.OK {
				t.Errorf("workload %s on n=%d is not connected-over-time: %+v", sp.Name, n, rep.Failures)
			}
		}
	}
}

func TestSuiteNamesUniqueAndStable(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range StandardSuite() {
		if seen[sp.Name] {
			t.Fatalf("duplicate workload name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	if !seen["static"] || !seen["bernoulli-0.6"] || !seen["eventual-missing"] {
		t.Fatalf("unexpected suite names: %v", seen)
	}
}

func TestBernoulliPurityProperty(t *testing.T) {
	prop := func(seed uint64, e8, t8 uint8) bool {
		g := NewBernoulli(8, 0.5, seed)
		e, tt := int(e8%8), int(t8)
		a := g.Present(e, tt)
		// Interleave other queries.
		_ = g.Present((e+1)%8, tt+3)
		_ = g.Present(e, tt+1)
		return g.Present(e, tt) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedBernoulliSpecRecurrence(t *testing.T) {
	sp := BoundedBernoulliSpec(0, 4) // base never present: only the forced recurrence fires
	g := sp.Build(5, 11)
	for e := 0; e < 5; e++ {
		present := 0
		for tt := 0; tt < 64; tt++ {
			if g.Present(e, tt) {
				present++
			}
		}
		// The recurrence bound forces each edge present every 4 instants.
		if present != 16 {
			t.Fatalf("edge %d present %d/64 instants, want exactly 16", e, present)
		}
	}
	if _, ok := g.(*BoundedRecurrence); !ok {
		t.Fatalf("BoundedBernoulliSpec built %T", g)
	}
	var _ dyngraph.EvolvingGraph = g
}
