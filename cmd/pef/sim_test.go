package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

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
		err := runSim(context.Background(), c.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote output before failing:\n%s", c.args, out.String())
		}
	}
}

// TestDynamicsRejectsOutOfRange checks that out-of-range dynamics
// parameters fail sim and journey with an error naming the flag, where
// the family constructors would otherwise panic.
func TestDynamicsRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"sim", "-dyn", "eventual-missing", "-edge", "9"}, "-edge must be in [0,8)"},
		{[]string{"sim", "-dyn", "chain", "-edge", "8"}, "-edge must be in [0,8)"},
		{[]string{"sim", "-dyn", "roving", "-period", "0"}, "-period must be >= 1"},
		{[]string{"sim", "-dyn", "t-interval", "-t", "0"}, "-t must be >= 1"},
		{[]string{"sim", "-dyn", "bernoulli", "-p", "2"}, "-p must be in [0,1]"},
		{[]string{"sim", "-dyn", "block-pointed", "-budget", "0"}, "-budget must be >= 1"},
		{[]string{"journey", "-n", "1"}, "ring size must be >= 2"},
		{[]string{"journey", "-dyn", "chain", "-edge", "-3"}, "-edge must be in [0,8)"},
		{[]string{"journey", "-dyn", "eventual-missing", "-edge", "8"}, "-edge must be in [0,8)"},
		{[]string{"journey", "-dyn", "periodic", "-period", "-1"}, "periodic needs -n >= 2 and -period >= 0"},
		{[]string{"journey", "-dyn", "periodic", "-n", "1"}, "periodic needs -n >= 2 and -period >= 0"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(context.Background(), c.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("pef %v: err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("pef %v wrote output before failing:\n%s", c.args, out.String())
		}
	}
}
