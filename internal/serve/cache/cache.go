// Package cache is pef serve's content-addressed verdict store: a
// byte-accounted LRU from canonical spec identity to the full
// scenario.Verdict, with singleflight coalescing so N concurrent
// requests for one spec cost one simulation, and an optional checksummed
// disk spill (spill.go) so a restarted daemon warms instead of
// recomputing.
//
// Content addressing is sound here because a Spec pins its execution
// completely: the same spec replays bit for bit, and verdict bytes are
// invariant under engine blocking (lockstep vs scalar, any lane width,
// any worker count) — the repo-wide byte-identity guarantee. The one
// hazard is name aliasing: a custom algorithm or family registered under
// some name would collide with a different process's meaning of that
// name. Key therefore refuses specs outside the built-in registry
// surface (ErrUnfingerprintable) and prefixes every key with a
// fingerprint of that surface, so caches never serve a verdict across
// differing built-in sets.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// Lookup outcomes reported by GetOrRun (and the X-Pef-Cache header).
const (
	// StatusHit: the verdict was served from the store.
	StatusHit = "hit"
	// StatusMiss: this call ran the simulation.
	StatusMiss = "miss"
	// StatusCoalesced: an identical concurrent request was already
	// running the simulation; this call waited for its verdict.
	StatusCoalesced = "coalesced"
)

// ErrUnfingerprintable rejects caching for specs that reference names
// outside the built-in registry surface. A custom registration is
// process-local — its meaning is not captured by the fingerprint — so
// caching such a verdict could serve one process's extension under
// another's. Callers must fail loudly, not silently bypass.
var ErrUnfingerprintable = errors.New("verdict cache: spec uses an extension outside the built-in registry surface")

// builtinSurface captures the names a fresh registry preloads — exactly
// the set whose semantics the binary pins.
type builtinSurface struct {
	fingerprint string
	algs        map[string]bool
	fams        map[string]bool
	props       map[string]bool
}

var builtins = sync.OnceValue(func() builtinSurface {
	reg := scenario.NewRegistry() // built-ins only, never custom registrations
	s := builtinSurface{algs: map[string]bool{}, fams: map[string]bool{}, props: map[string]bool{}}
	h := sha256.New()
	fmt.Fprintf(h, "spec-v%d\n", scenario.Version)
	for _, group := range []struct {
		kind  string
		names []string
		set   map[string]bool
	}{
		{"algorithm", reg.AlgorithmNames(), s.algs},
		{"family", reg.FamilyNames(), s.fams},
		{"property", reg.PropertyNames(), s.props},
	} {
		names := append([]string(nil), group.names...)
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s/%s\n", group.kind, n)
			group.set[n] = true
		}
	}
	s.fingerprint = hex.EncodeToString(h.Sum(nil))
	return s
})

// Fingerprint identifies this binary's built-in registry surface: a
// SHA-256 over the spec format version and the sorted built-in
// algorithm/family/property names. It prefixes every cache key and is
// embedded in disk spills, so stored verdicts survive restarts but never
// cross a change in the built-in set.
func Fingerprint() string { return builtins().fingerprint }

// Key returns the content address of a spec — Fingerprint()|Spec.ID() —
// or ErrUnfingerprintable when the spec references an algorithm, family
// or expectation outside the built-in surface.
func Key(s scenario.Spec) (string, error) {
	b := builtins()
	if !b.algs[s.Algorithm] {
		return "", fmt.Errorf("%w: algorithm %q (spec %s)", ErrUnfingerprintable, s.Algorithm, s.ID())
	}
	if !b.fams[s.Family] {
		return "", fmt.Errorf("%w: family %q (spec %s)", ErrUnfingerprintable, s.Family, s.ID())
	}
	if s.Expect != "" && !b.props[s.Expect] {
		return "", fmt.Errorf("%w: property %q (spec %s)", ErrUnfingerprintable, s.Expect, s.ID())
	}
	return b.fingerprint + "|" + s.ID(), nil
}

// Config parameterizes a Cache.
type Config struct {
	// Capacity bounds the store in accounted bytes — key length plus
	// encoded verdict length plus a fixed per-entry overhead. Values
	// <= 0 mean 256 MiB.
	Capacity int64
	// Telemetry, when non-nil, receives the cache.* counters and gauges
	// (hits, misses, evictions, coalesced, stores; bytes, entries).
	Telemetry *telemetry.Registry
}

// Cache is the store itself. All methods are safe for concurrent use.
type Cache struct {
	capacity int64

	mu      sync.Mutex
	lru     *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight
	bytes   int64

	hits, misses, evictions, coalesced, stores *telemetry.Counter
	bytesG, entriesG                           *telemetry.Gauge
}

type entry struct {
	key  string
	v    scenario.Verdict
	size int64
}

// flight is one in-progress computation; waiters block on done and read
// v afterwards (the channel close publishes the write).
type flight struct {
	done chan struct{}
	v    scenario.Verdict
}

// New creates an empty cache.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256 << 20
	}
	reg := cfg.Telemetry
	return &Cache{
		capacity:  cfg.Capacity,
		lru:       list.New(),
		entries:   map[string]*list.Element{},
		flights:   map[string]*flight{},
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		coalesced: reg.Counter("cache.coalesced"),
		stores:    reg.Counter("cache.stores"),
		bytesG:    reg.Gauge("cache.bytes"),
		entriesG:  reg.Gauge("cache.entries"),
	}
}

// Get returns the stored verdict for key, counting a hit or miss and
// refreshing recency on hits.
func (c *Cache) Get(key string) (scenario.Verdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.getLocked(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// Put stores a computed verdict under key. Verdicts carrying an
// execution error (Err != "", which includes cancellations) are
// discarded — a transient failure must be recomputed, never replayed.
func (c *Cache) Put(key string, v scenario.Verdict) {
	if v.Err != "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v)
}

// GetOrRun returns the verdict for key, computing it via run on a miss.
// Concurrent calls for the same key coalesce: exactly one executes run,
// the rest wait for its verdict (or their context). The returned status
// is StatusHit, StatusMiss or StatusCoalesced.
func (c *Cache) GetOrRun(ctx context.Context, key string, run func() scenario.Verdict) (scenario.Verdict, string, error) {
	c.mu.Lock()
	if v, ok := c.getLocked(key); ok {
		c.hits.Inc()
		c.mu.Unlock()
		return v, StatusHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced.Inc()
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.v, StatusCoalesced, nil
		case <-ctx.Done():
			return scenario.Verdict{}, "", ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses.Inc()
	c.mu.Unlock()

	v := run()
	c.mu.Lock()
	delete(c.flights, key)
	if v.Err == "" {
		c.putLocked(key, v)
	}
	c.mu.Unlock()
	f.v = v
	close(f.done)
	return v, StatusMiss, nil
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the accounted size of the store.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *Cache) getLocked(key string) (scenario.Verdict, bool) {
	el, ok := c.entries[key]
	if !ok {
		return scenario.Verdict{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).v, true
}

// entryOverhead approximates the per-entry bookkeeping (list element,
// map slot, entry struct) the byte accounting charges beyond the
// payload.
const entryOverhead = 128

func entrySize(key string, v scenario.Verdict) int64 {
	size := int64(len(key)) + entryOverhead
	if data, err := json.Marshal(v); err == nil {
		size += int64(len(data))
	}
	return size
}

func (c *Cache) putLocked(key string, v scenario.Verdict) {
	if el, ok := c.entries[key]; ok {
		// Content-addressed: a re-store is byte-identical by
		// construction, so only the recency changes.
		c.lru.MoveToFront(el)
		return
	}
	e := &entry{key: key, v: v, size: entrySize(key, v)}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += e.size
	c.stores.Inc()
	for c.bytes > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		be := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, be.key)
		c.bytes -= be.size
		c.evictions.Inc()
	}
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(c.lru.Len()))
}
