package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"pef/internal/harness"
)

// TestSweepByteIdenticalAcrossWorkers is the acceptance check from the
// batch-runner issue: -seeds 8 with -workers 1 and -workers 8 must emit
// byte-identical reports.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"-quick", "-seeds", "8"}, extra...)
		if err := runExperiments(context.Background(), args, &buf, io.Discard); err != nil {
			t.Fatalf("runExperiments(%v): %v", args, err)
		}
		return buf.String()
	}
	seq := render("-workers", "1")
	par := render("-workers", "8")
	if seq != par {
		t.Fatalf("sweep reports differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	for _, want := range []string{"Experiment sweep", "Aggregate", "Per-seed spread", "overall", "100.0%"} {
		if !strings.Contains(seq, want) {
			t.Errorf("sweep report missing %q", want)
		}
	}
}

func TestJSONByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers string) string {
		var buf bytes.Buffer
		args := []string{"-quick", "-seeds", "4", "-json", "-only", "E-T1.R5", "-workers", workers}
		if err := runExperiments(context.Background(), args, &buf, io.Discard); err != nil {
			t.Fatalf("runExperiments(%v): %v", args, err)
		}
		return buf.String()
	}
	seq := render("1")
	if par := render("8"); seq != par {
		t.Fatal("JSON reports differ across worker counts")
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(seq), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Total != 4 || rep.Passes != 4 || rep.PassRate != 1 {
		t.Fatalf("unexpected JSON summary: total=%d passes=%d rate=%v", rep.Total, rep.Passes, rep.PassRate)
	}
	if len(rep.Jobs) != 4 || rep.Jobs[0].ID != "E-T1.R5" {
		t.Fatalf("unexpected jobs: %+v", rep.Jobs)
	}
}

func TestClassicSingleSeedReport(t *testing.T) {
	var buf bytes.Buffer
	if err := runExperiments(context.Background(), []string{"-quick"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Experiment report (seed=1, quick=true)") {
		t.Fatalf("missing classic header:\n%.200s", out)
	}
	for _, e := range harness.All() {
		if !strings.Contains(out, e.ID) {
			t.Errorf("report missing %s", e.ID)
		}
	}
	if !strings.Contains(out, "experiments reproduce the paper's predictions.") {
		t.Error("report missing summary line")
	}
}

// TestOnlyShardID checks that -only accepts the row IDs sharded reports
// print (and their "### Failure:" headings name), and renders exactly
// that shard's section.
func TestOnlyShardID(t *testing.T) {
	const id = "E-T1.R2#n=4/a=keep-direction"
	var got bytes.Buffer
	if err := runExperiments(context.Background(), []string{"-quick", "-only", id}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	var shard harness.Experiment
	for _, e := range harness.Sharded(harness.All(), true) {
		if e.ID == id {
			shard = e
		}
	}
	res, err := shard.Run(harness.Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 1 {
		t.Fatalf("%s has %d rows, want 1", id, res.Table.Rows())
	}
	var want bytes.Buffer
	want.WriteString("# Experiment report (seed=1, quick=true)\n")
	if err := harness.WriteResult(&want, res); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n---\n1/1 experiments reproduce the paper's predictions.\n")
	if got.String() != want.String() {
		t.Fatalf("-only %s:\n--- got ---\n%s--- want ---\n%s", id, got.String(), want.String())
	}
}

// TestFailureDrivesExitCode checks the CI contract: any failing or
// erroring job in a batch makes runExperiments()'s caller exit non-zero.
func TestFailureDrivesExitCode(t *testing.T) {
	pass := harness.JobResult{ID: "A", Seed: 1, Result: harness.Result{Pass: true}}
	fail := harness.JobResult{ID: "B", Seed: 1, Result: harness.Result{Pass: false}}
	errJob := harness.JobResult{ID: "C", Seed: 1, Err: errors.New("boom")}

	if err := failure([]harness.JobResult{pass, pass}); err != nil {
		t.Errorf("all-pass batch must not error, got %v", err)
	}
	if err := failure([]harness.JobResult{pass, fail}); err == nil {
		t.Error("failing job must produce an error")
	}
	if err := failure([]harness.JobResult{pass, errJob}); !errors.Is(err, errJob.Err) {
		t.Errorf("erroring job must surface its error, got %v", err)
	}
}

// TestShardDefaultOn pins the ROADMAP migration: heavy ring-size sweeps
// decompose into per-(ring, victim) jobs by default, with -shard=false as
// the coarse-row escape hatch.
func TestShardDefaultOn(t *testing.T) {
	render := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"-quick", "-seeds", "2", "-only", "E-T1.R1"}, extra...)
		if err := runExperiments(context.Background(), args, &buf, io.Discard); err != nil {
			t.Fatalf("runExperiments(%v): %v", args, err)
		}
		return buf.String()
	}
	sharded := render()
	if !strings.Contains(sharded, "E-T1.R1#n=") {
		t.Fatalf("default run lacks sharded row IDs:\n%.400s", sharded)
	}
	coarse := render("-shard=false")
	if strings.Contains(coarse, "E-T1.R1#n=") {
		t.Fatalf("-shard=false still shards:\n%.400s", coarse)
	}
	if !strings.Contains(coarse, "E-T1.R1") {
		t.Fatal("-shard=false lost the experiment row")
	}
}
