package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func campaignCfg(workers int) CampaignConfig {
	return CampaignConfig{
		Generator: "boundary",
		Gen:       GenConfig{MaxRing: 8},
		Count:     30,
		Seeds:     []uint64{1, 2},
		Workers:   workers,
	}
}

// renderCampaign returns the campaign's two report renderings.
func renderCampaign(t *testing.T, c *Campaign) (string, string) {
	t.Helper()
	var rep, js bytes.Buffer
	if err := c.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return rep.String(), js.String()
}

// TestStreamCampaignMatchesRunCampaign is the acceptance criterion of the
// streaming redesign: the streamed path — verdicts folded online into an
// Aggregate — must produce byte-identical WriteReport/WriteJSON output to
// the collected RunCampaign path, for any worker count.
func TestStreamCampaignMatchesRunCampaign(t *testing.T) {
	collected, err := RunCampaign(context.Background(), campaignCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, collected)

	for _, workers := range []int{1, 3, 8} {
		cfg := campaignCfg(workers)
		agg, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for v, serr := range StreamCampaign(context.Background(), cfg) {
			if serr != nil {
				t.Fatalf("workers=%d: stream error: %v", workers, serr)
			}
			agg.Add(v)
			ids = append(ids, v.ID)
		}
		if len(ids) != len(collected.Verdicts) {
			t.Fatalf("workers=%d: streamed %d verdicts, collected %d", workers, len(ids), len(collected.Verdicts))
		}
		for i, v := range collected.Verdicts {
			if v.ID != ids[i] {
				t.Fatalf("workers=%d: canonical order diverges at %d: %s vs %s", workers, i, ids[i], v.ID)
			}
		}
		var rep, js bytes.Buffer
		if err := agg.WriteReport(&rep); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if rep.String() != wantRep {
			t.Fatalf("workers=%d: streamed report differs from collected:\n%s\n--- want ---\n%s", workers, rep.String(), wantRep)
		}
		if js.String() != wantJSON {
			t.Fatalf("workers=%d: streamed JSON differs from collected", workers)
		}
	}
}

// TestCheckpointResumeReproducesUninterruptedRun kills a campaign after N
// verdicts, checkpoints it, resumes from the decoded checkpoint, and
// requires the final reports to be byte-identical to the uninterrupted
// run — for several cut points including the seed boundary.
func TestCheckpointResumeReproducesUninterruptedRun(t *testing.T) {
	full, err := RunCampaign(context.Background(), campaignCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, full)
	total := len(full.Verdicts)

	for _, cut := range []int{0, 7, 30, total - 1} {
		cfg := campaignCfg(2)
		agg, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for v, serr := range StreamCampaign(context.Background(), cfg) {
			if n == cut {
				break // the "kill": nothing after this round is seen
			}
			if serr != nil {
				t.Fatal(serr)
			}
			agg.Add(v)
			n++
		}
		data, err := agg.Checkpoint().Encode()
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		ckpt, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if ckpt.Done != cut {
			t.Fatalf("cut=%d: checkpoint Done=%d", cut, ckpt.Done)
		}

		resumed, err := RunCampaign(context.Background(), CampaignConfig{Workers: 3, Resume: ckpt})
		if err != nil {
			t.Fatalf("cut=%d: resume: %v", cut, err)
		}
		if len(resumed.Verdicts) != total-cut {
			t.Fatalf("cut=%d: resumed ran %d scenarios, want %d", cut, len(resumed.Verdicts), total-cut)
		}
		gotRep, gotJSON := renderCampaign(t, resumed)
		if gotRep != wantRep {
			t.Fatalf("cut=%d: resumed report differs from uninterrupted run:\n%s\n--- want ---\n%s", cut, gotRep, wantRep)
		}
		if gotJSON != wantJSON {
			t.Fatalf("cut=%d: resumed JSON differs from uninterrupted run", cut)
		}
		if resumed.Total() != total || resumed.Checkpoint().Done != total {
			t.Fatalf("cut=%d: resumed totals wrong: %d", cut, resumed.Total())
		}
	}
}

// TestResumeRejectsConflictingConfig pins the safety contract: a resumed
// campaign cannot silently continue under different parameters.
func TestResumeRejectsConflictingConfig(t *testing.T) {
	cfg := campaignCfg(1)
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := agg.Checkpoint()
	for name, bad := range map[string]CampaignConfig{
		"generator": {Generator: "uniform", Resume: ckpt},
		"count":     {Count: 99, Resume: ckpt},
		"seeds":     {Seeds: []uint64{9}, Resume: ckpt},
		"gen":       {Gen: GenConfig{MaxRing: 14}, Resume: ckpt},
	} {
		if _, err := RunCampaign(context.Background(), bad); err == nil {
			t.Errorf("conflicting %s accepted on resume", name)
		}
	}
	// Matching explicit values are fine.
	if _, err := RunCampaign(context.Background(), CampaignConfig{Generator: "boundary", Resume: ckpt}); err != nil {
		t.Errorf("matching generator rejected: %v", err)
	}
}

// TestCheckpointRejectsCorruption checks the decode-side validation.
func TestCheckpointRejectsCorruption(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte(`{"version":99}`)); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":1,"generator":"uniform","gen":{},"count":2,"seeds":[1],"done":9,"ok":0}`)); err == nil {
		t.Error("done beyond campaign accepted")
	}
	if _, err := DecodeCheckpoint([]byte(`{"version":1,"generator":"uniform","gen":{},"count":5,"seeds":[1],"done":2,"ok":1,"families":[{"family":"static","runs":1,"ok":1}]}`)); err == nil {
		t.Error("family runs disagreeing with done accepted")
	}
}

// TestAggregateMergePartition checks the merge-based claim: any in-order
// partition of the verdict stream, aggregated separately and merged,
// reproduces the whole-stream aggregate's reports.
func TestAggregateMergePartition(t *testing.T) {
	cfg := campaignCfg(1)
	c, err := RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, wantJSON := renderCampaign(t, c)

	parts := []*Aggregate{}
	for i := 0; i < 3; i++ {
		a, err := NewAggregate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, a)
	}
	for i, v := range c.Verdicts {
		// Contiguous thirds: merge preserves in-order concatenation.
		parts[i*3/len(c.Verdicts)].Add(v)
	}
	merged, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	var rep, js bytes.Buffer
	if err := merged.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if rep.String() != wantRep || js.String() != wantJSON {
		t.Fatal("merged partition reports differ from whole-stream aggregation")
	}
	if err := merged.Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	other, _ := NewAggregate(CampaignConfig{Generator: "uniform"})
	if err := merged.Merge(other); err == nil {
		t.Fatal("merge across different campaigns accepted")
	}
}

// TestStreamCampaignCancellationYieldsIdentifiedTail cancels mid-stream
// and checks every remaining scenario still arrives, in order, with its
// identity and the context error.
func TestStreamCampaignCancellationYieldsIdentifiedTail(t *testing.T) {
	cfg := campaignCfg(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var all []Verdict
	cancelledAt := -1
	i := 0
	for v, serr := range StreamCampaign(ctx, cfg) {
		all = append(all, v)
		if serr != nil && cancelledAt == -1 {
			cancelledAt = i
		}
		if i == 4 {
			cancel()
		}
		i++
	}
	if len(all) != 60 {
		t.Fatalf("yielded %d of 60 scenarios", len(all))
	}
	if cancelledAt == -1 {
		t.Skip("campaign finished before cancellation propagated") // tiny machines
	}
	full, err := RunCampaign(context.Background(), campaignCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range all {
		if v.ID != full.Verdicts[j].ID {
			t.Fatalf("identity diverges at %d: %s vs %s", j, v.ID, full.Verdicts[j].ID)
		}
	}
	tail := all[cancelledAt]
	if tail.Err == "" || tail.Outcome != "error" {
		t.Fatalf("cancelled verdict not marked: %+v", tail)
	}
}

// TestRunCampaignEchoesResolvedConfig pins the Campaign echo fields the
// facade and CLI rely on.
func TestRunCampaignEchoesResolvedConfig(t *testing.T) {
	c, err := RunCampaign(context.Background(), CampaignConfig{Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Generator != "uniform" || !reflect.DeepEqual(c.Seeds, []uint64{1}) || c.Count != 2 {
		t.Fatalf("resolved echo wrong: %+v", c)
	}
	if c.Gen == (GenConfig{}) {
		t.Fatal("campaign did not echo the defaulted generator bounds")
	}
	if _, err := RunCampaign(context.Background(), CampaignConfig{Generator: "nope"}); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

// TestCheckpointSnapshotIsImmutable is the regression test for the
// mid-stream checkpointing bug: a checkpoint taken at cut N must stay
// internally consistent (and encodable) while the aggregate keeps
// folding verdicts past it.
func TestCheckpointSnapshotIsImmutable(t *testing.T) {
	cfg := campaignCfg(1)
	agg, err := NewAggregate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mid *Checkpoint
	n := 0
	for v, serr := range StreamCampaign(context.Background(), cfg) {
		if serr != nil {
			t.Fatal(serr)
		}
		agg.Add(v)
		if n++; n == 5 {
			mid = agg.Checkpoint()
		}
	}
	if mid.Done != 5 {
		t.Fatalf("mid-stream checkpoint Done=%d", mid.Done)
	}
	runs := 0
	for _, fs := range mid.Families {
		runs += fs.Runs
	}
	if runs != 5 {
		t.Fatalf("later Add mutated the checkpoint snapshot: family runs %d", runs)
	}
	data, err := mid.Encode()
	if err != nil {
		t.Fatalf("mid-stream checkpoint no longer encodes: %v", err)
	}
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCampaignDocument checks that a written campaign document
// decodes into the same document WriteJSON renders, and that other
// versions and generator-less documents are refused.
func TestDecodeCampaignDocument(t *testing.T) {
	c, err := RunCampaign(context.Background(), campaignCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	_, js := renderCampaign(t, c)
	doc, err := DecodeCampaignDocument([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Generator != "boundary" || doc.Total != 60 || doc.OK != c.OKCount() {
		t.Fatalf("decoded %s campaign of %d (%d ok), want boundary of 60 (%d ok)", doc.Generator, doc.Total, doc.OK, c.OKCount())
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if again.String() != js {
		t.Fatalf("decoded document re-encodes differently:\n%s\nwant:\n%s", again.String(), js)
	}
	for _, bad := range []string{
		`{"version": 2, "generator": "boundary", "total": 1}`,
		`{"version": 1, "total": 1}`,
		`{"seeds": [1], "jobs": [], "passRate": 1}`,
		`not json`,
	} {
		if _, err := DecodeCampaignDocument([]byte(bad)); err == nil {
			t.Errorf("DecodeCampaignDocument(%s) accepted", bad)
		}
	}
}
