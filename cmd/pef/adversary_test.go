package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

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
		err := runAdversary(context.Background(), c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): err = %v, want %q", c.args, err, c.want)
		}
	}
}
