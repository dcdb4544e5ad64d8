package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins pefadversary's stdout byte for byte against the
// committed goldens in testdata.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"one_robot.golden", []string{"-robots", "1", "-n", "8", "-rounds", "64", "-viz", "4"}},
		{"two_robots.golden", []string{"-robots", "2", "-n", "8", "-rounds", "64", "-viz", "0"}},
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

// TestRejectsRingBelowTheorem checks a ring too small for the adversary
// is an error, not a panic inside its constructor.
func TestRejectsRingBelowTheorem(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-robots", "1", "-n", "2"}, "n>=3"},
		{[]string{"-robots", "2", "-n", "3"}, "n>=4"},
		{[]string{"-robots", "3"}, "robots must be 1 or 2"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): err = %v, want %q", c.args, err, c.want)
		}
	}
}
