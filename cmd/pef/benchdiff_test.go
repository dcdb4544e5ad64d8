package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a JSON document into dir and returns its path.
func write(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// trajectoryDoc is a pef experiments -json trajectory, which benchdiff
// does not diff.
const trajectoryDoc = `{
  "seeds": [1, 2],
  "quick": false,
  "jobs": [
    {"id": "E-A", "seed": 1, "pass": true},
    {"id": "E-A", "seed": 2, "pass": false}
  ],
  "passes": 1, "total": 2, "passRate": 0.5
}`

const oldCampaign = `{
  "version": 1, "generator": "uniform", "count": 200, "seeds": [1, 2],
  "total": 400, "ok": 400, "okRate": 1.0, "families": [], "scalars": []
}`

const newCampaign = `{
  "version": 1, "generator": "uniform", "count": 200, "seeds": [1, 2],
  "total": 400, "ok": 396, "okRate": 0.99, "families": [], "scalars": []
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
	for _, want := range []string{"Campaign diff", "uniform", "99.0%", "no regressions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign diff output missing %q:\n%s", want, out)
		}
	}

	// A zero-tolerance gate must flag the OK-rate drop.
	b.Reset()
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", oldP, newP}, &b, io.Discard); err == nil {
		t.Fatalf("gate accepted an OK-rate drop:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "OK rate 100.0% → 99.0%") {
		t.Fatalf("gate did not name the OK-rate regression:\n%s", b.String())
	}
}

// TestCampaignDiffSizesDiffer checks that campaigns of different sizes
// diff cleanly with the gate off, while the OK-rate gate still holds
// across them.
func TestCampaignDiffSizesDiffer(t *testing.T) {
	const small = `{
	  "version": 1, "generator": "uniform", "count": 100, "seeds": [1, 2],
	  "total": 200, "ok": 190, "okRate": 0.95, "families": [], "scalars": []
	}`
	dir := t.TempDir()
	bigP := write(t, dir, "big.json", oldCampaign)
	smallP := write(t, dir, "small.json", small)

	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{bigP, smallP}, &b, io.Discard); err != nil {
		t.Fatalf("ungated diff of a 400- and a 200-scenario campaign failed: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "gate disabled") {
		t.Fatalf("ungated diff did not say the gate is off:\n%s", b.String())
	}
	b.Reset()
	if err := runBenchdiff(context.Background(), []string{"-fail-on-regress", "0", bigP, smallP}, &b, io.Discard); err == nil {
		t.Fatalf("gate accepted an OK-rate drop across campaign sizes:\n%s", b.String())
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

// TestTrajectoriesRejected checks that experiment trajectories, which
// carry neither a campaign nor a boundary report, are refused.
func TestTrajectoriesRejected(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", trajectoryDoc)
	newP := write(t, dir, "new.json", trajectoryDoc)
	var b strings.Builder
	err := runBenchdiff(context.Background(), []string{oldP, newP}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "neither a boundary report nor a campaign document") {
		t.Fatalf("trajectory diff: got %v, want a rejection\n%s", err, b.String())
	}
}

func TestMixedDocumentKindsRejected(t *testing.T) {
	dir := t.TempDir()
	campP := write(t, dir, "camp.json", oldCampaign)
	var boundary strings.Builder
	if err := runSearch(context.Background(), searchBase, &boundary, io.Discard); err != nil {
		t.Fatal(err)
	}
	boundP := write(t, dir, "boundary.json", boundary.String())
	var b strings.Builder
	if err := runBenchdiff(context.Background(), []string{boundP, boundP}, &b, io.Discard); err != nil {
		t.Fatalf("boundary-vs-boundary diff failed: %v\n%s", err, b.String())
	}
	if err := runBenchdiff(context.Background(), []string{campP, boundP}, &b, io.Discard); err == nil {
		t.Fatal("campaign-vs-boundary diff accepted")
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
