package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer's start; Parent 0 means a top-level span. Worker is
// the pool worker (or client) that ran it, -1 when it ran on the driving
// goroutine.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of one traced iteration in memory; write dumps
// them as JSONL when the iteration ends. A nil *tracer records nothing,
// so the untraced pass runs the same code at the cost of a nil check.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, worker int, attr string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name, Worker: worker, Start: now, End: -1, Attr: attr})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by the intervals, each
// clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		if open && iv.lo <= curHi {
			curHi = max(curHi, iv.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = iv.lo, iv.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// traceSummary is what the per-layer metrics read from one iteration's
// spans.
type traceSummary struct {
	// self is the summed self time per span name, in ms: each span's
	// duration minus the part of it its child spans cover.
	self map[string]float64
	// selfs and durs list each span name's self times and durations in
	// ms, one entry per span.
	selfs, durs map[string][]float64
	// coverage is the share of the root span's wall time during which at
	// least one layer span was open.
	coverage float64
}

// summarize computes self times and coverage. The root is the single
// span named rootName; while it is still open, coverage stays 0.
func summarize(spans []span, rootName string) (traceSummary, error) {
	sum := traceSummary{self: map[string]float64{}, selfs: map[string][]float64{}, durs: map[string][]float64{}}
	children := map[int][]interval{}
	var layers []interval
	var root span
	found := false
	for _, s := range spans {
		if s.Name == rootName {
			root, found = s, true
			continue
		}
		if s.End < s.Start {
			return sum, fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		layers = append(layers, interval{s.Start, s.End})
	}
	if !found {
		return sum, fmt.Errorf("no %s span", rootName)
	}
	for _, s := range spans {
		if s.Name == rootName {
			continue
		}
		self := s.dur() - unionLen(children[s.ID], s.Start, s.End)
		sum.self[s.Name] += float64(self) / 1e6
		sum.selfs[s.Name] = append(sum.selfs[s.Name], float64(self)/1e6)
		sum.durs[s.Name] = append(sum.durs[s.Name], float64(s.dur())/1e6)
	}
	if d := root.dur(); d > 0 {
		sum.coverage = float64(unionLen(layers, root.Start, root.End)) / float64(d)
	}
	return sum, nil
}

// poolStats derives pool utilization from the job spans of one name:
// busy is summed job time over workers × the pool's wall (first job start
// to last job end), tailIdle the time from the first worker's last job
// end to the pool's end (when some worker had nothing left to run).
func poolStats(spans []span, name string, workers int) (jobs int, busy, tailIdleMs float64) {
	var first, last int64 = -1, 0
	var sumDur int64
	lastEnd := map[int]int64{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		jobs++
		sumDur += s.dur()
		if first < 0 || s.Start < first {
			first = s.Start
		}
		last = max(last, s.End)
		lastEnd[s.Worker] = max(lastEnd[s.Worker], s.End)
	}
	if jobs == 0 || last <= first {
		return jobs, 0, 0
	}
	busy = float64(sumDur) / float64(int64(workers)*(last-first))
	earliest := last
	for w := 0; w < workers; w++ {
		e, ok := lastEnd[w]
		if !ok {
			e = first // a worker that never ran a job idled throughout
		}
		earliest = min(earliest, e)
	}
	return jobs, busy, float64(last-earliest) / 1e6
}
