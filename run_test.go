package pef

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func exploreScenario() Scenario {
	return Scenario{
		Version:   1,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: "even",
		Family:    "static",
		Horizon:   400,
		Seed:      3,
	}
}

func TestRunDeclarativeScenario(t *testing.T) {
	v, err := Run(context.Background(), exploreScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Outcome != "explored" || v.Covered != 8 {
		t.Fatalf("unified Run verdict: %+v", v)
	}
}

// TestRunRejectsNonPositiveHorizon is the regression test for the silent
// zero-round bug: Explore used to accept Horizon <= 0 and report
// Covered=0 without executing anything.
func TestRunRejectsNonPositiveHorizon(t *testing.T) {
	s := exploreScenario()
	s.Horizon = 0
	if _, err := Run(context.Background(), s); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("Run accepted a zero horizon (err=%v)", err)
	}
	s.Horizon = -5
	if _, err := Run(context.Background(), s); err == nil {
		t.Fatal("Run accepted a negative horizon")
	}
	if _, err := Explore(context.Background(), ExploreConfig{
		Robots: 3, Algorithm: PEF3Plus(), Dynamics: Static(8), Horizon: 0, Seed: 1,
	}); err == nil || !strings.Contains(err.Error(), "Horizon") {
		t.Fatalf("Explore accepted a zero horizon (err=%v)", err)
	}
}

func TestRunOptionOverrides(t *testing.T) {
	var rounds atomic.Int64
	s := exploreScenario()
	s.Algorithm = "external-walker" // not in any registry: override must carry it
	v, err := Run(context.Background(), s,
		WithAlgorithm(PEF3Plus()),
		WithDynamics(Static(8)),
		WithPlacements(
			Placement{Node: 0, Chirality: RightIsCW},
			Placement{Node: 2, Chirality: RightIsCW},
			Placement{Node: 4, Chirality: RightIsCW},
		),
		WithObservers(ObserverFunc(func(ev *RoundEvent) { rounds.Add(1) })),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Covered != 8 {
		t.Fatalf("override run verdict: %+v", v)
	}
	if got := rounds.Load(); got != int64(s.Horizon) {
		t.Fatalf("observer saw %d rounds, want %d", got, s.Horizon)
	}
	// Mismatched override ring is a configuration error.
	if _, err := Run(context.Background(), exploreScenario(), WithDynamics(Static(5))); err == nil {
		t.Fatal("dynamics/ring mismatch accepted")
	}
}

func TestRunWithTraceStreamsRounds(t *testing.T) {
	var buf bytes.Buffer
	s := exploreScenario()
	s.Horizon = 25
	if _, err := Run(context.Background(), s, WithTrace(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 25 {
		t.Fatalf("trace sink received %d lines, want 25", len(lines))
	}
	if !strings.Contains(lines[0], `"t":0`) {
		t.Fatalf("trace line is not a round record: %s", lines[0])
	}
}

func TestRunCancellationReturnsPartialVerdict(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first poll: zero additional rounds run
	s := exploreScenario()
	s.Horizon = 100000
	v, err := Run(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if v.Outcome != "cancelled" || v.OK {
		t.Fatalf("cancelled verdict: %+v", v)
	}

	// The Explore wrapper surfaces the same partial-report behavior.
	if _, err := Explore(ctx, ExploreConfig{
		Robots: 3, Algorithm: PEF3Plus(), Dynamics: Static(8), Horizon: 100000, Seed: 1,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Explore did not propagate cancellation: %v", err)
	}
}

// TestConfineWrappersMatchUnifiedPath pins the descriptor refactor: the
// diagram confinement call must reproduce the oracle's own adversary run
// exactly.
func TestConfineWrappersMatchUnifiedPath(t *testing.T) {
	rep, _, err := ConfineOneRobotWithDiagram(PEF3Plus(), 8, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(context.Background(), Scenario{
		Version: 1, Ring: 8, Robots: 1, Algorithm: "pef3+", Placement: "adjacent",
		Family: "confine-one", Horizon: 400, Seed: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != "confined" || !v.OK || v.Distinct != rep.DistinctVisited {
		t.Fatalf("wrapper and unified path disagree: %+v vs %+v", rep, v)
	}
}
