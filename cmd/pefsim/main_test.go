package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins pefsim's stdout byte for byte against the
// committed goldens in testdata.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"list.golden", []string{"-list"}},
		{"bernoulli_viz.golden", []string{"-n", "8", "-k", "3", "-dyn", "bernoulli", "-rounds", "400", "-viz", "6"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(c.args, &out, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("run(%v) output differs from %s:\n--- got ---\n%s--- want ---\n%s", c.args, c.golden, out.Bytes(), want)
			}
		})
	}
}

// TestRejectsBadTeamAndHorizon checks the flags the facade would reject
// fail with its wording instead of panicking or running zero rounds.
func TestRejectsBadTeamAndHorizon(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "4", "-k", "5"}, "need 0 < Robots < Nodes, got k=5 n=4"},
		{[]string{"-n", "4", "-k", "4"}, "need 0 < Robots < Nodes, got k=4 n=4"},
		{[]string{"-k", "0"}, "need 0 < Robots < Nodes, got k=0 n=8"},
		{[]string{"-rounds", "0"}, "Horizon must be >= 1, got 0"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote output before failing:\n%s", c.args, out.String())
		}
	}
}
