package dyngraph

import (
	"math/bits"

	"pef/internal/ring"
)

// This file holds the dyngraph side of the lockstep engine: per-lane edge
// schedules materialized as per-edge lane columns.

// LaneColumns materializes E_t of up to 64 evolving graphs — one per seed
// lane — and writes it column-wise into cols: bit l of cols[e] reports
// whether lane l's graph has edge e present at time t. Only lanes with
// their bit set in active are materialized; retired lanes contribute zero
// bits. sets provides per-lane scratch (len(sets) == len(graphs), each
// sized on first use), so steady-state materialization does not allocate.
// The ring may have at most 64 edges (cols is indexed by edge and sliced
// to the edge count by the caller).
//
// Each lane makes the exact EdgesInto call the scalar engine makes, in
// increasing t order per lane, so streaming (stateful) graphs observe the
// same call sequence and every lane's schedule is bit-identical to its
// scalar run.
//
// The return value counts the active lanes served by their graph's own
// kernel (InPlaceGraph) this instant; the rest fell back to testing every
// edge with Present. It is telemetry's fast-path hit signal; callers that
// don't care simply drop it.
func LaneColumns(graphs []EvolvingGraph, sets []ring.EdgeSet, active uint64, t int, cols []uint64) (kernelLanes int) {
	var m [64]uint64
	for w := active; w != 0; w &= w - 1 {
		l := bits.TrailingZeros64(w)
		if ip, ok := graphs[l].(InPlaceGraph); ok {
			ip.EdgesAtInto(t, &sets[l])
			kernelLanes++
		} else {
			presentInto(graphs[l], t, &sets[l])
		}
		m[l] = sets[l].Word(0)
	}
	ring.Transpose64(&m)
	for e := range cols {
		cols[e] = m[e]
	}
	return kernelLanes
}
