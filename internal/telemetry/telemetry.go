// Package telemetry is the engine's instrumentation layer: counters,
// gauges, and metrics.Dist-backed histograms registered by name, with
// atomic hot-path recording and an order-independent snapshot/merge
// model.
//
// Two invariants shape the whole package:
//
//   - Off means free. Every recording method is a no-op on a nil
//     receiver, and Registry accessors on a nil registry return nil
//     instruments. Callers thread a single nilable pointer through the
//     stack; "telemetry disabled" is the nil zero value everywhere and
//     costs one predictable branch per record.
//
//   - Observation never perturbs output. Instruments are read on demand
//     (Snapshot), never woven into report or checkpoint rendering, so
//     campaign bytes are identical with telemetry on or off. Snapshots
//     themselves are deterministic-by-construction for deterministic
//     workloads: counters and histograms accumulate commutatively, so
//     any worker interleaving folds to the same totals. Gauges are the
//     documented exception — instantaneous values (jobs in flight,
//     reorder depth) depend on when you look; they are for live
//     introspection, not for byte-stable artifacts.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"pef/internal/metrics"
)

// Counter is a monotonically growing event count. The zero value is
// ready to use; all methods are safe on a nil receiver (no-ops reading
// zero).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (may be negative, though counters are conventionally
// monotone) and returns the new count. Nil receiver: no-op returning 0.
func (c *Counter) Add(d int64) int64 {
	if c == nil {
		return 0
	}
	return c.v.Add(d)
}

// Value returns the current count. Nil receiver: 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level with a high-water mark. Set/Add update
// the level and ratchet the high-water mark; both are safe on a nil
// receiver.
type Gauge struct {
	v  atomic.Int64
	hi atomic.Int64
}

// Set replaces the level. Nil receiver: no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.ratchet(v)
}

// Add shifts the level by d. Nil receiver: no-op.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.ratchet(g.v.Add(d))
}

func (g *Gauge) ratchet(v int64) {
	for {
		hi := g.hi.Load()
		if v <= hi || g.hi.CompareAndSwap(hi, v) {
			return
		}
	}
}

// Value returns the current level. Nil receiver: 0.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// High returns the high-water mark. Nil receiver: 0.
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	return g.hi.Load()
}

// Registry is a name-indexed set of instruments. Accessors get-or-create
// under a mutex — instrument creation is cold-path; the returned
// pointers record lock-free. A nil Registry hands out nil instruments,
// so one nil check at wiring time disables a whole subsystem's
// telemetry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registry: nil (a valid no-op instrument).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry:
// nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram, creating it on first use. Nil
// registry: nil.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHist()
		r.hists[name] = h
	}
	return h
}

// GaugeValue is a gauge's snapshot: the instantaneous level and the
// high-water mark.
type GaugeValue struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// HistValue is a histogram's snapshot: the condensed summary plus the
// exact value→count cells (ascending value order). The cells make
// snapshot merging exact — merged summaries are recomputed from merged
// cells, never approximated from two summaries.
type HistValue struct {
	Count  int                 `json:"count"`
	Min    int                 `json:"min"`
	Max    int                 `json:"max"`
	Mean   float64             `json:"mean"`
	Median float64             `json:"median"`
	P95    float64             `json:"p95"`
	Cells  []metrics.DistEntry `json:"cells,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// encoding/json renders map keys sorted, so a snapshot of deterministic
// counters/histograms marshals to identical bytes regardless of the
// order instruments were created or recorded.
type Snapshot struct {
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]GaugeValue `json:"gauges,omitempty"`
	Hists    map[string]HistValue  `json:"hists,omitempty"`
}

// Snapshot copies the current instrument values. Nil registry: zero
// Snapshot. Zero-valued counters and empty histograms are included —
// existence is information (the subsystem was wired, nothing fired).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeValue, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeValue{Value: g.Value(), High: g.High()}
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistValue, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = h.Value()
		}
	}
	return s
}

// Merge folds o into s: counters add, gauge levels add with the
// high-water maxed (the multi-registry reading of "total in flight"),
// histograms merge cell-wise. Merge is commutative and associative over
// counters and histograms, so snapshots from sharded runs fold to the
// same totals in any order.
func (s *Snapshot) Merge(o Snapshot) {
	for name, v := range o.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[name] += v
	}
	for name, g := range o.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]GaugeValue)
		}
		cur := s.Gauges[name]
		cur.Value += g.Value
		if g.High > cur.High {
			cur.High = g.High
		}
		s.Gauges[name] = cur
	}
	for name, h := range o.Hists {
		if s.Hists == nil {
			s.Hists = make(map[string]HistValue)
		}
		s.Hists[name] = mergeHistValues(s.Hists[name], h)
	}
}

// CounterNames returns the snapshot's counter names in sorted order —
// convenience for deterministic rendering in progress lines and tests.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
