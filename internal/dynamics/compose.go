package dynamics

import (
	"fmt"

	"pef/internal/dyngraph"
	"pef/internal/prng"
	"pef/internal/ring"
)

// Compose modes: how a Composed graph folds its members' edge schedules
// into one. The names double as the "compose:*" family-name suffixes the
// scenario registry exposes.
const (
	// ComposeUnion keeps an edge present when any member has it: the
	// densest composition, connected-over-time whenever one member is.
	ComposeUnion = "union"
	// ComposeIntersect keeps an edge present only when every member has
	// it: the adversary-composition mode (each member may independently
	// veto an edge). Connectivity-over-time must come from the members'
	// joint behaviour; pair at least one stochastic member with recurrent
	// margins when exploration is expected.
	ComposeIntersect = "intersect"
	// ComposeInterleave alternates rounds among the members: round t uses
	// member t mod m's schedule, a round-robin timetable of adversaries.
	ComposeInterleave = "interleave"
)

// ComposeModes lists the supported modes in canonical order.
func ComposeModes() []string {
	return []string{ComposeUnion, ComposeIntersect, ComposeInterleave}
}

// Composed folds the edge schedules of several member graphs over the same
// ring into one evolving graph. Like every oblivious dynamics it is a pure
// function of (edge, time), so composed runs replay exactly. Its kernel
// (EdgesAtInto) keeps scratch space, so a Composed is not safe for
// concurrent use.
type Composed struct {
	r       ring.Ring
	mode    string
	members []dyngraph.EvolvingGraph
	scratch ring.EdgeSet // one member's E_t while EdgesAtInto folds
}

// NewComposed combines the members' schedules under the given mode
// (ComposeUnion, ComposeIntersect or ComposeInterleave). All members must
// share one ring size and at least one member is required.
func NewComposed(mode string, members ...dyngraph.EvolvingGraph) (*Composed, error) {
	switch mode {
	case ComposeUnion, ComposeIntersect, ComposeInterleave:
	default:
		return nil, fmt.Errorf("dynamics: unknown compose mode %q (known: %v)", mode, ComposeModes())
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("dynamics: compose %s needs at least one member", mode)
	}
	r := members[0].Ring()
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("dynamics: compose %s: nil member %d", mode, i)
		}
		if m.Ring().Size() != r.Size() {
			return nil, fmt.Errorf("dynamics: compose %s: member %d ring size %d disagrees with %d",
				mode, i, m.Ring().Size(), r.Size())
		}
	}
	return &Composed{r: r, mode: mode, members: members}, nil
}

// Ring implements dyngraph.EvolvingGraph.
func (c *Composed) Ring() ring.Ring { return c.r }

// Mode returns the composition mode.
func (c *Composed) Mode() string { return c.mode }

// Present implements dyngraph.EvolvingGraph.
func (c *Composed) Present(e, t int) bool {
	if !c.r.ValidEdge(e) || t < 0 {
		return false
	}
	switch c.mode {
	case ComposeUnion:
		for _, m := range c.members {
			if m.Present(e, t) {
				return true
			}
		}
		return false
	case ComposeIntersect:
		for _, m := range c.members {
			if !m.Present(e, t) {
				return false
			}
		}
		return true
	default: // ComposeInterleave
		return c.members[t%len(c.members)].Present(e, t)
	}
}

// NewTimetable returns a seeded periodic timetable over an n-node ring:
// each edge gets a pseudo-random appearance pattern of the given period
// with one guaranteed presence slot (so every edge recurs at least once
// per period and the graph is connected-over-time with recurrence bound at
// most 2·period−1), the remaining slots drawn present with probability
// one half. The same (n, period, seed) always yields the same timetable.
func NewTimetable(n, period int, seed uint64) (*Periodic, error) {
	if period < 1 {
		return nil, fmt.Errorf("dynamics: timetable period %d below 1", period)
	}
	patterns := make([][]bool, n)
	for e := 0; e < n; e++ {
		pat := make([]bool, period)
		guaranteed := prng.UintnAt(seed, uint64(e), 0xA11DA, period)
		for t := range pat {
			pat[t] = t == guaranteed || prng.BoolAt(seed, uint64(e), 0x71DE0+uint64(t), 0.5)
		}
		patterns[e] = pat
	}
	return NewPeriodic(n, patterns)
}

// TimetableSpec returns the seeded periodic-timetable workload, the
// constructor behind the scenario registry's "periodic" family.
func TimetableSpec(period int) Spec {
	return Spec{
		Name: "periodic-" + itoa(period),
		Build: func(n int, seed uint64) dyngraph.EvolvingGraph {
			g, err := NewTimetable(n, period, seed)
			if err != nil {
				panic(err) // period was validated by the caller
			}
			return g
		},
	}
}
