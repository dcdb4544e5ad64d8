package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"

	"pef/internal/metrics"
)

// Aggregate is the online campaign aggregation state: per-family verdict
// counts, bounded scalar distributions, and the violation list, folded in
// one verdict at a time. It holds O(aggregate) memory — families × metrics
// × distinct scalar values, plus the (expected-empty) violations — never
// O(scenarios), which is what lets StreamCampaign report on
// million-scenario sweeps without collecting verdicts.
//
// Reports rendered from an Aggregate are byte-identical to the legacy
// collected path: Campaign.WriteReport and Campaign.WriteJSON are now
// implemented by folding their verdict slice through an Aggregate.
type Aggregate struct {
	// Generator, Gen, Count and Seeds echo the resolved campaign
	// configuration; checkpoints embed them so a resumed campaign cannot
	// silently continue under different parameters.
	Generator string
	Gen       GenConfig
	Count     int
	Seeds     []uint64

	// start and end delimit the contiguous block of the canonical stream
	// this aggregate is responsible for ([0, total) for whole campaigns,
	// the shard block for sharded ones); checkpoints carry them so
	// per-shard aggregates merge back in order.
	start, end int

	done       int
	ok         int
	familyIdx  map[string]int
	families   []FamilyStats
	sweep      *metrics.Sweep
	violations []Verdict
	// reg resolves family descriptors for the margin instrumentation
	// (confinement limits); never nil after NewAggregate.
	reg *Registry
	// marginBuf is the reused margin scratch slice keeping the
	// steady-state Add fold allocation-free.
	marginBuf []Margin
}

// NewAggregate creates the aggregation state for the campaign described
// by cfg (defaults resolved exactly like RunCampaign). When cfg.Resume is
// set, the checkpointed prefix is folded in, so Add-ing the remaining
// verdict stream reproduces the uninterrupted aggregate.
func NewAggregate(cfg CampaignConfig) (*Aggregate, error) {
	rcfg, err := cfg.resolved()
	if err != nil {
		return nil, err
	}
	start, _, end := rcfg.region()
	a := &Aggregate{
		Generator: rcfg.Generator,
		Gen:       rcfg.Gen.withDefaults(),
		Count:     rcfg.Count,
		Seeds:     rcfg.Seeds,
		start:     start,
		end:       end,
		familyIdx: map[string]int{},
		sweep:     metrics.NewSweep(),
		reg:       rcfg.registry(),
	}
	if rcfg.Resume != nil {
		if err := a.restore(rcfg.Resume); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Start returns the offset of the aggregate's block in the canonical
// stream (0 for whole campaigns).
func (a *Aggregate) Start() int { return a.start }

// End returns the exclusive end of the aggregate's block.
func (a *Aggregate) End() int { return a.end }

// Done returns the number of verdicts folded in (including a resumed
// checkpoint's prefix).
func (a *Aggregate) Done() int { return a.done }

// OKCount returns the number of folded verdicts whose expectation holds.
func (a *Aggregate) OKCount() int { return a.ok }

// Violations returns the folded verdicts that failed their predicate or
// errored, in fold order (canonical order when fed from a campaign
// stream).
func (a *Aggregate) Violations() []Verdict { return a.violations }

// FamilyTable returns the per-family aggregates in first-seen order.
func (a *Aggregate) FamilyTable() []FamilyStats { return a.families }

// Sweep returns the scalar aggregation state: per-family cover-time,
// revisit-gap and distinct-node distributions.
func (a *Aggregate) Sweep() *metrics.Sweep { return a.sweep }

// Add folds one verdict into the aggregate. Folding the canonical verdict
// stream reproduces every report of the collected path byte for byte.
func (a *Aggregate) Add(v Verdict) {
	a.done++
	passed := v.OK && v.Err == ""
	if passed {
		a.ok++
	}
	fam := v.Spec.Family
	i, seen := a.familyIdx[fam]
	if !seen {
		i = len(a.families)
		a.familyIdx[fam] = i
		a.families = append(a.families, FamilyStats{Family: fam})
	}
	a.families[i].Runs++
	if passed {
		a.families[i].OK++
	}
	switch v.Expect {
	case ExpectExplore:
		a.families[i].Explore++
	case ExpectConfine:
		a.families[i].Confine++
	default:
		a.families[i].None++
	}
	if v.Err != "" {
		a.families[i].Errors++
	}
	if v.Err == "" { // errored/cancelled scenarios carry no metrics
		if v.CoverTime >= 0 {
			a.sweep.RecordScalar(fam, "cover", v.CoverTime)
		}
		if v.Outcome == "explored" || v.Outcome == "partial" {
			a.sweep.RecordScalar(fam, "maxGap", v.MaxGap)
		}
		a.sweep.RecordScalar(fam, "distinct", v.Distinct)
		// Margin distributions: how much headroom each verdict had against
		// the bound its property enforced (see Registry.Margins). They ride
		// the same sweep scalars as the metrics above, so checkpoints,
		// resume and shard merge preserve them for free.
		a.marginBuf = a.reg.AppendMargins(a.marginBuf[:0], v)
		for _, m := range a.marginBuf {
			a.sweep.RecordScalar(fam, m.Metric, m.Value)
		}
	}
	if !v.OK || v.Err != "" {
		a.violations = append(a.violations, v)
	}
}

// Merge folds b into a. Merging the parts of any in-order partition of a
// campaign stream reproduces the whole-stream aggregate exactly — counts
// and distributions are commutative, and first-seen orders concatenate —
// which is the property checkpoint/resume and multi-process sharding rely
// on. The two aggregates must describe the same campaign configuration;
// Merge itself does not police block adjacency (callers feeding it an
// out-of-order partition get an order-scrambled report) — MergeCheckpoints
// is the checked, shard-aware entry point.
func (a *Aggregate) Merge(b *Aggregate) error {
	if a.Generator != b.Generator || a.Count != b.Count ||
		!reflect.DeepEqual(a.Seeds, b.Seeds) || a.Gen != b.Gen {
		return fmt.Errorf("scenario: merging aggregates of different campaigns (%s/%d/%v vs %s/%d/%v)",
			a.Generator, a.Count, a.Seeds, b.Generator, b.Count, b.Seeds)
	}
	a.done += b.done
	a.ok += b.ok
	for _, fs := range b.families {
		i, seen := a.familyIdx[fs.Family]
		if !seen {
			i = len(a.families)
			a.familyIdx[fs.Family] = i
			a.families = append(a.families, FamilyStats{Family: fs.Family})
		}
		a.families[i].Runs += fs.Runs
		a.families[i].OK += fs.OK
		a.families[i].Explore += fs.Explore
		a.families[i].Confine += fs.Confine
		a.families[i].None += fs.None
		a.families[i].Errors += fs.Errors
	}
	if err := a.sweep.RestoreScalars(b.sweep.ScalarStates()); err != nil {
		return err
	}
	a.violations = append(a.violations, b.violations...)
	return nil
}

// MergeCheckpoints folds completed per-shard campaign checkpoints into
// the whole-campaign aggregate. The checkpoints may arrive in any order;
// they must describe the same campaign, each must be complete over its
// block (Done == End-Start), and together they must tile the canonical
// stream exactly — [0, total) with no gap and no overlap. The merged
// aggregate's reports are byte-identical to a single-process run of the
// whole campaign.
func MergeCheckpoints(ckpts ...*Checkpoint) (*Aggregate, error) {
	if len(ckpts) == 0 {
		return nil, fmt.Errorf("scenario: no checkpoints to merge")
	}
	sorted := append([]*Checkpoint(nil), ckpts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	total := sorted[0].Count * len(sorted[0].Seeds)
	for i, c := range sorted {
		if err := c.validate(); err != nil {
			return nil, err
		}
		if c.Done != c.effEnd(c.Count*len(c.Seeds))-c.Start {
			return nil, fmt.Errorf("scenario: shard [%d, %d) is incomplete (%d of %d scenarios done); finish or resume it before merging",
				c.Start, c.effEnd(c.Count*len(c.Seeds)), c.Done, c.effEnd(c.Count*len(c.Seeds))-c.Start)
		}
		if i == 0 && c.Start != 0 {
			return nil, fmt.Errorf("scenario: first shard starts at %d, not 0 — shard [0, %d) is missing", c.Start, c.Start)
		}
	}
	a, err := NewAggregate(CampaignConfig{Resume: sorted[0]})
	if err != nil {
		return nil, err
	}
	for _, c := range sorted[1:] {
		b, err := NewAggregate(CampaignConfig{Resume: c})
		if err != nil {
			return nil, err
		}
		if b.start != a.start+a.done {
			return nil, fmt.Errorf("scenario: shard starting at %d does not continue the merged prefix [0, %d) (gap or overlap)", b.start, a.start+a.done)
		}
		if err := a.Merge(b); err != nil {
			return nil, err
		}
		a.end = b.end
	}
	if a.done != total {
		return nil, fmt.Errorf("scenario: merged shards cover %d of %d scenarios — a shard is missing", a.done, total)
	}
	return a, nil
}

// WriteReport renders the aggregate as the human-readable campaign
// report: the family table, the scalar spread, and one section per
// violation — byte-identical to the legacy collected rendering.
func (a *Aggregate) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# Scenario campaign (generator=%s, count=%d, seeds=%d)\n",
		a.Generator, a.Count, len(a.Seeds)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\n## Families (%d scenarios, %d ok)\n\n", a.done, a.ok); err != nil {
		return err
	}
	ft := metrics.NewTable("family", "runs", "ok", "explore", "confine", "none", "errors")
	for _, fs := range a.families {
		ft.AddRow(fs.Family, fs.Runs, fs.OK, fs.Explore, fs.Confine, fs.None, fs.Errors)
	}
	if err := ft.Render(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n## Scalar metrics\n\n"); err != nil {
		return err
	}
	if err := a.sweep.ScalarTable().Render(w); err != nil {
		return err
	}
	for _, v := range a.violations {
		if _, err := fmt.Fprintf(w, "\n### Violation: %s\n", v.ID); err != nil {
			return err
		}
		detail := v.Violation
		if v.Err != "" {
			detail = v.Err
		}
		if _, err := fmt.Fprintf(w, "\nexpect=%s outcome=%s covered=%d/%d maxGap=%d distinct=%d: %s\n",
			v.Expect, v.Outcome, v.Covered, v.Spec.Ring, v.MaxGap, v.Distinct, detail); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n---\n%d/%d scenarios satisfy the paper's predicates.\n",
		a.done-len(a.violations), a.done)
	return err
}

// CampaignDocument is the versioned machine-readable campaign document
// (pef scenarios -json). It deliberately omits the worker count and any
// wall time, so documents are byte-identical for any -workers value and
// across runs; a campaign's wall time travels in the
// campaign.<generator>.millis telemetry counter instead.
type CampaignDocument struct {
	Version    int                 `json:"version"`
	Generator  string              `json:"generator"`
	Count      int                 `json:"count"`
	Seeds      []uint64            `json:"seeds"`
	Total      int                 `json:"total"`
	OK         int                 `json:"ok"`
	OKRate     float64             `json:"okRate"`
	Families   []FamilyStats       `json:"families"`
	Scalars    []metrics.ScalarRow `json:"scalars"`
	Violations []Verdict           `json:"violations,omitempty"`
}

// DecodeCampaignDocument parses a campaign document, rejecting other
// format versions and documents that name no generator.
func DecodeCampaignDocument(data []byte) (CampaignDocument, error) {
	var doc CampaignDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("scenario: campaign document: %w", err)
	}
	if doc.Version != Version {
		return doc, fmt.Errorf("scenario: unsupported campaign document version %d (want %d)", doc.Version, Version)
	}
	if doc.Generator == "" {
		return doc, fmt.Errorf("scenario: campaign document names no generator")
	}
	return doc, nil
}

// WriteJSON renders the versioned campaign document from the aggregate.
func (a *Aggregate) WriteJSON(w io.Writer) error {
	doc := CampaignDocument{
		Version:    Version,
		Generator:  a.Generator,
		Count:      a.Count,
		Seeds:      a.Seeds,
		Total:      a.done,
		OK:         a.ok,
		Families:   a.families,
		Scalars:    a.sweep.ScalarRows(),
		Violations: a.violations,
	}
	if doc.Total > 0 {
		doc.OKRate = float64(doc.OK) / float64(doc.Total)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
