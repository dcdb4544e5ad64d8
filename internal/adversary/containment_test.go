package adversary

import (
	"testing"

	"pef/internal/core"
	"pef/internal/dyngraph"
	"pef/internal/fsync"
	"pef/internal/spec"
)

func TestArcContainmentBoundaries(t *testing.T) {
	a := NewArcContainment(8, 2, 3, 0) // arc {2,3,4}
	left, right := a.Boundaries()
	if left != 1 || right != 4 {
		t.Fatalf("boundaries = (%d,%d), want (1,4)", left, right)
	}
}

func TestArcContainmentValidation(t *testing.T) {
	for _, c := range []struct{ start, width, budget int }{
		{0, 0, 0}, {0, 8, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d accepted", c.width)
				}
			}()
			NewArcContainment(8, c.start, c.width, c.budget)
		}()
	}
}

func TestArcContainmentForeverConfinesButIllegal(t *testing.T) {
	const n, horizon = 8, 400
	adv := NewArcContainment(n, 0, 4, 0)
	ct := spec.NewConfinementTracker()
	sim, err := fsync.New(fsync.Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    adv,
		Placements:  fsync.AdjacentPlacements(n, 3, 0),
		Observers:   []fsync.Observer{ct},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(horizon)
	if !ct.ConfinedTo(4) {
		t.Fatalf("budget-0 walls leaked: visited %v", ct.VisitedNodes())
	}
	// Two eventually missing edges: the realized graph is NOT
	// connected-over-time — an illegal impossibility witness.
	missing := dyngraph.EventuallyMissingEdges(sim.RecordedGraph(), horizon, horizon/2)
	if len(missing) != 2 {
		t.Fatalf("eventually missing edges = %v, want the two walls", missing)
	}
	if rep := dyngraph.VerifyConnectedOverTime(sim.RecordedGraph(), horizon, []int{0}); rep.OK {
		t.Fatal("budget-0 realized graph verified connected-over-time, impossible")
	}
}

func TestArcContainmentWithBudgetIsEscaped(t *testing.T) {
	const n, horizon = 8, 1200
	adv := NewArcContainment(n, 0, 4, 6)
	ct := spec.NewConfinementTracker()
	vt := spec.NewVisitTracker(n)
	sim, err := fsync.New(fsync.Config{
		Algorithm:   core.PEF3Plus,
		Dynamics:    adv,
		Placements:  fsync.AdjacentPlacements(n, 3, 0),
		Observers:   []fsync.Observer{ct, vt},
		RecordGraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(horizon)
	if ct.ConfinedTo(4) {
		t.Fatal("PEF_3+ stayed confined despite reopening walls (contradicts Theorem 3.1)")
	}
	if rep := vt.Report(); rep.Covered != n {
		t.Fatalf("escaped but did not explore: %s", rep)
	}
	// The budget keeps each wall's absence runs bounded: legal dynamics.
	left, right := adv.Boundaries()
	for _, e := range []int{left, right} {
		if run := dyngraph.MaxAbsenceRun(sim.RecordedGraph(), e, horizon); run > 6 {
			t.Fatalf("wall %d absent for %d consecutive rounds, budget 6", e, run)
		}
	}
}
