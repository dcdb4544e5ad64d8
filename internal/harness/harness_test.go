package harness

import (
	"context"
	"strings"
	"testing"
)

func TestAllExperimentsPassQuick(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s errored: %v", e.ID, err)
			}
			if !res.Pass {
				t.Fatalf("%s failed: notes=%v\n%s", e.ID, res.Notes, res.Table.String())
			}
			checkIdentity(t, res, e.ID, e)
		})
	}
}

// checkIdentity asserts that res carries the ID it ran under and the title
// and artifact declared for its experiment in All().
func checkIdentity(t *testing.T, res Result, id string, decl Experiment) {
	t.Helper()
	if res.ID != id || res.Title != decl.Title || res.Artifact != decl.Artifact {
		t.Fatalf("result identity (%q, %q, %q), want (%q, %q, %q)",
			res.ID, res.Title, res.Artifact, id, decl.Title, decl.Artifact)
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("E-T1.R1", false); !ok {
		t.Fatal("E-T1.R1 not found")
	}
	if _, ok := Find("bogus", false); ok {
		t.Fatal("bogus experiment found")
	}
	// Shard IDs resolve under the quick setting that produced them.
	if e, ok := Find("E-T1.R2#n=4/a=keep-direction", true); !ok || e.ID != "E-T1.R2#n=4/a=keep-direction" {
		t.Fatalf("quick shard not found: %q, %t", e.ID, ok)
	}
	if _, ok := Find("E-X1#n=64", true); ok {
		t.Fatal("full-suite shard E-X1#n=64 found under quick")
	}
	if _, ok := Find("E-X1#n=64", false); !ok {
		t.Fatal("full-suite shard E-X1#n=64 not found")
	}
}

// renderSingleSeed streams the quick index under one seed through the
// batch engine, the path of pef experiments' single-seed report. A job that
// errors or panics fails the test.
func renderSingleSeed(t *testing.T, seed uint64) (string, []JobResult) {
	t.Helper()
	var b strings.Builder
	jobs, err := RunBatch(context.Background(), BatchConfig{
		Seeds: []uint64{seed},
		Quick: true,
		OnResult: func(j JobResult) {
			if j.Err != nil {
				t.Errorf("%s seed=%d: %v", j.ID, j.Seed, j.Err)
			}
			if err := WriteResult(&b, j.Result); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), jobs
}

func TestBatchStreamsReport(t *testing.T) {
	out, jobs := renderSingleSeed(t, 2)
	if len(jobs) != len(All()) {
		t.Fatalf("got %d results, want %d", len(jobs), len(All()))
	}
	for _, e := range All() {
		if !strings.Contains(out, e.ID) {
			t.Errorf("report missing %s", e.ID)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Error("report contains no PASS verdicts")
	}
}

func TestExperimentsDeterministicAcrossRuns(t *testing.T) {
	first, _ := renderSingleSeed(t, 7)
	if second, _ := renderSingleSeed(t, 7); first != second {
		t.Fatal("experiment suite is not deterministic for a fixed seed")
	}
}
