package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a trajectory JSON into dir and returns its path.
func write(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const oldDoc = `{
  "seeds": [1, 2],
  "quick": false,
  "jobs": [
    {"id": "E-A", "seed": 1, "pass": true, "millis": 100},
    {"id": "E-A", "seed": 2, "pass": true, "millis": 100},
    {"id": "E-B", "seed": 1, "pass": true, "millis": 50},
    {"id": "E-B", "seed": 2, "pass": false, "millis": 50},
    {"id": "E-GONE", "seed": 1, "pass": true, "millis": 10}
  ],
  "passes": 4, "total": 5, "passRate": 0.8,
  "scalars": [
    {"id": "E-A", "metric": "cover", "count": 2, "min": 1, "mean": 4.0, "median": 4.0, "max": 7}
  ]
}`

const newDoc = `{
  "seeds": [1, 2],
  "quick": false,
  "jobs": [
    {"id": "E-A", "seed": 1, "pass": true, "millis": 40},
    {"id": "E-A", "seed": 2, "pass": false, "millis": 40},
    {"id": "E-B", "seed": 1, "pass": true, "millis": 200},
    {"id": "E-B", "seed": 2, "pass": true, "millis": 200},
    {"id": "E-NEW", "seed": 1, "pass": true, "millis": 10}
  ],
  "passes": 4, "total": 5, "passRate": 0.8,
  "scalars": [
    {"id": "E-A", "metric": "cover", "count": 2, "min": 2, "mean": 6.0, "median": 6.0, "max": 9}
  ]
}`

func TestDiffTableAndVerdict(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", oldDoc)
	newP := write(t, dir, "new.json", newDoc)

	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{oldP, newP}, &b, io.Discard); err != nil {
		t.Fatalf("ungated diff failed: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"E-A", "REGRESS", // pass rate 100% -> 50%
		"improve",     // E-B 50% -> 100%
		"gone", "new", // asymmetric experiments flagged, not failed
		"faster",        // E-A wall time 200 -> 80
		"slower",        // E-B wall time 100 -> 400
		"cover", "+2.0", // scalar mean delta
		"no regressions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestFailOnRegressGate(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", oldDoc)
	newP := write(t, dir, "new.json", newDoc)

	var b strings.Builder
	err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0.1", oldP, newP}, &b, io.Discard)
	if err == nil {
		t.Fatal("gate accepted a 50-point pass-rate drop and a 4x slowdown")
	}
	out := b.String()
	if !strings.Contains(out, "E-A: pass rate") || !strings.Contains(out, "E-B: wall time") {
		t.Fatalf("gate did not name both regressions:\n%s", out)
	}
}

func TestIdenticalTrajectoriesPass(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", oldDoc)
	newP := write(t, dir, "new.json", oldDoc)
	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", oldP, newP}, &b, io.Discard); err != nil {
		t.Fatalf("identical trajectories reported a regression: %v\n%s", err, b.String())
	}
}

const oldCampaign = `{
  "version": 1, "generator": "uniform", "count": 200, "seeds": [1, 2],
  "total": 400, "ok": 400, "okRate": 1.0, "families": [], "scalars": [],
  "millis": 500
}`

const newCampaign = `{
  "version": 1, "generator": "uniform", "count": 200, "seeds": [1, 2],
  "total": 400, "ok": 396, "okRate": 0.99, "families": [], "scalars": [],
  "millis": 150
}`

func TestCampaignDiff(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", oldCampaign)
	newP := write(t, dir, "new.json", newCampaign)

	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0.05", oldP, newP}, &b, io.Discard); err != nil {
		t.Fatalf("campaign diff within tolerance failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"Campaign diff", "uniform", "0.30x", "no regressions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign diff output missing %q:\n%s", want, out)
		}
	}

	// A zero-tolerance gate must flag both the OK-rate drop and, with the
	// roles swapped, the wall-time growth.
	b.Reset()
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", oldP, newP}, &b, io.Discard); err == nil {
		t.Fatalf("gate accepted an OK-rate drop:\n%s", b.String())
	}
	b.Reset()
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", newP, oldP}, &b, io.Discard); err == nil {
		t.Fatalf("gate accepted a 3.3x wall-time growth:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "wall time") {
		t.Fatalf("gate did not name the wall-time regression:\n%s", b.String())
	}
}

// TestCampaignMarginDiff checks the margin-distribution section of
// campaign mode: margin metrics (coverSlack, gapHeadroom,
// confineHeadroom) render per (family, metric) with tighter/wider flags,
// non-margin scalars stay out, and margins never trip the gate — they
// are drift diagnostics, not pass/fail signals.
func TestCampaignMarginDiff(t *testing.T) {
	const oldM = `{
	  "version": 1, "generator": "uniform", "count": 200, "seeds": [1],
	  "total": 200, "ok": 200, "okRate": 1.0, "families": [],
	  "scalars": [
	    {"id": "bounded", "metric": "coverTime", "count": 80, "min": 3, "mean": 9.0, "median": 8.0, "max": 30},
	    {"id": "bounded", "metric": "coverSlack", "count": 80, "min": 4, "mean": 51.0, "median": 50.0, "max": 97},
	    {"id": "eventual", "metric": "gapHeadroom", "count": 60, "min": 1, "mean": 20.0, "median": 19.0, "max": 44},
	    {"id": "gone-fam", "metric": "confineHeadroom", "count": 10, "min": 1, "mean": 1.5, "median": 1.0, "max": 2}
	  ]
	}`
	const newM = `{
	  "version": 1, "generator": "uniform", "count": 200, "seeds": [1],
	  "total": 200, "ok": 200, "okRate": 1.0, "families": [],
	  "scalars": [
	    {"id": "bounded", "metric": "coverSlack", "count": 80, "min": 2, "mean": 44.0, "median": 43.0, "max": 95},
	    {"id": "eventual", "metric": "gapHeadroom", "count": 60, "min": 1, "mean": 23.0, "median": 22.0, "max": 48}
	  ]
	}`
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", oldM)
	newP := write(t, dir, "new.json", newM)

	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", oldP, newP}, &b, io.Discard); err != nil {
		t.Fatalf("tightening margins must not trip the gate: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"Predicate margins",
		"coverSlack",
		"4 / 51.0 / 50.0 / 97 (n=80)",
		"2 / 44.0 / 43.0 / 95 (n=80)",
		"-7.0",
		"tighter",
		"wider",
		"gone",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("margin diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "coverTime") {
		t.Fatalf("non-margin scalar leaked into the margin section:\n%s", out)
	}
}

func TestMixedDocumentKindsRejected(t *testing.T) {
	dir := t.TempDir()
	trajP := write(t, dir, "traj.json", oldDoc)
	campP := write(t, dir, "camp.json", oldCampaign)
	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{trajP, campP}, &b, io.Discard); err == nil {
		t.Fatal("trajectory-vs-campaign diff accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{"one.json"}, &b, io.Discard); err == nil {
		t.Fatal("single argument accepted")
	}
	if err := runBenchdiff(context.Background(), []string{"missing-a.json", "missing-b.json"}, &b, io.Discard); err == nil {
		t.Fatal("missing files accepted")
	}
}
