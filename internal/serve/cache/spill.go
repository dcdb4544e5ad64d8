package cache

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"pef/internal/durable"
	"pef/internal/scenario"
)

// spillVersion is the on-disk spill format version.
const spillVersion = 1

// spillDoc is the disk image of a cache: the stored verdicts in
// least-recently-used-first order (warming replays them through the LRU,
// reproducing the recency order), guarded by the registry fingerprint
// and a SHA-256 content checksum in the campaign-checkpoint style.
type spillDoc struct {
	Version     int                `json:"version"`
	Fingerprint string             `json:"fingerprint"`
	Verdicts    []scenario.Verdict `json:"verdicts"`
	Checksum    string             `json:"checksum,omitempty"`
}

func spillChecksum(d *spillDoc) *string { return &d.Checksum }

// WriteSpill atomically persists the cache under path (durable.WriteAtomic,
// the checkpoint discipline) and returns the number of verdicts written.
// Keys are not stored: they are recomputed from each verdict's spec on
// warm, which is also what keeps a spill useless to a binary whose
// built-in surface moved.
func (c *Cache) WriteSpill(path string) (int, error) {
	doc := spillDoc{Version: spillVersion, Fingerprint: Fingerprint()}
	c.mu.Lock()
	doc.Verdicts = make([]scenario.Verdict, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		doc.Verdicts = append(doc.Verdicts, el.Value.(*entry).v)
	}
	c.mu.Unlock()
	data, err := durable.Encode(doc, spillChecksum)
	if err != nil {
		return 0, fmt.Errorf("verdict cache: encode spill: %w", err)
	}
	if err := durable.WriteAtomic(path, append(data, '\n')); err != nil {
		return 0, err
	}
	return len(doc.Verdicts), nil
}

// WarmFromSpill loads a spill written by WriteSpill, returning the
// number of verdicts admitted. A missing file is a quiet cold start.
// Damaged or foreign spills — unparseable JSON, a version or fingerprint
// mismatch, a failed or missing checksum — are a LOUD warning through
// warnf and a cold start: the cache recomputes rather than trusting
// suspect bytes. warnf nil means stderr.
func (c *Cache) WarmFromSpill(path string, warnf func(format string, args ...any)) (int, error) {
	if warnf == nil {
		warnf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	doc, err := durable.Decode(data, spillChecksum)
	var why string
	switch {
	case err != nil:
		why = fmt.Sprintf("is unusable (%v)", err)
	case doc.Checksum == "":
		why = "carries no content checksum"
	case doc.Version != spillVersion:
		why = fmt.Sprintf("has format version %d (want %d)", doc.Version, spillVersion)
	case doc.Fingerprint != Fingerprint():
		why = "was written under a different built-in registry surface"
	}
	if why != "" {
		warnf("verdict cache: WARNING: spill %s %s; starting cold, verdicts will be recomputed", path, why)
		return 0, nil
	}
	warmed := 0
	for _, v := range doc.Verdicts {
		key, err := Key(v.Spec)
		if err != nil || v.Err != "" {
			// Unreachable for spills this binary wrote, but a hand-edited
			// file must not smuggle unfingerprintable entries in.
			warnf("verdict cache: WARNING: spill %s entry %s skipped: unfingerprintable or errored", path, v.ID)
			continue
		}
		c.Put(key, v)
		warmed++
	}
	return warmed, nil
}
