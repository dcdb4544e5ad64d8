package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGoldenOutput pins each seed command's stdout byte for byte against
// the committed goldens in testdata, one subtest per command; the golden
// for command c and case name is testdata/c_name.
func TestGoldenOutput(t *testing.T) {
	type golden struct {
		name string
		args []string
	}
	commands := []struct {
		command string
		cases   []golden
	}{
		{"sim", []golden{
			{"list.golden", []string{"-list"}},
			{"bernoulli_viz.golden", []string{"-n", "8", "-k", "3", "-dyn", "bernoulli", "-rounds", "400", "-viz", "6"}},
		}},
		{"adversary", []golden{
			{"one_robot.golden", []string{"-robots", "1", "-n", "8", "-rounds", "64", "-viz", "4"}},
			{"two_robots.golden", []string{"-robots", "2", "-n", "8", "-rounds", "64", "-viz", "0"}},
		}},
		{"table", []golden{{"quick.golden", []string{"-quick"}}}},
		{"mirror", []golden{{"default.golden", nil}}},
		{"journey", []golden{{"default.golden", nil}}},
	}
	for _, cmd := range commands {
		t.Run(cmd.command, func(t *testing.T) {
			for _, c := range cmd.cases {
				t.Run(c.name, func(t *testing.T) {
					file := cmd.command + "_" + c.name
					want, err := os.ReadFile(filepath.Join("testdata", file))
					if err != nil {
						t.Fatal(err)
					}
					args := append([]string{cmd.command}, c.args...)
					var out bytes.Buffer
					if err := run(context.Background(), args, &out, io.Discard); err != nil {
						t.Fatalf("pef %v: %v", args, err)
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Fatalf("pef %v output differs from %s:\n--- got ---\n%s--- want ---\n%s", args, file, out.Bytes(), want)
					}
				})
			}
		})
	}
}

// TestDispatcherListsCommands checks that a missing or unknown command
// fails with the full command list, and that every listed command parses
// its own flags: -h returns flag.ErrHelp.
func TestDispatcherListsCommands(t *testing.T) {
	names := []string{"sim", "adversary", "table", "mirror", "journey", "experiments",
		"scenarios", "search", "serve", "coord", "benchdiff"}
	for _, args := range [][]string{nil, {"bogus"}, {"-h"}} {
		err := run(context.Background(), args, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("pef %v: want an error", args)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), "\n  "+name+" ") {
				t.Errorf("pef %v: usage does not list %q:\n%v", args, name, err)
			}
		}
	}
	for _, name := range names {
		if err := run(context.Background(), []string{name, "-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("pef %s -h: err = %v, want flag.ErrHelp", name, err)
		}
	}
}

// TestRunRejectsBadFlags checks the campaign-style commands refuse
// malformed flags instead of running, one subtest per command.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		command string
		bad     [][]string
	}{
		{"experiments", [][]string{
			{"-only", "bogus"},
			{"-seeds", "0"},
			{"-lockstep=false"}, // the removed -lockstep flag
			{"-timings"},        // the removed per-job wall times
		}},
		{"scenarios", [][]string{
			{"-count", "0"},
			{"-seeds", "0"},
			{"-family", "nope"},
			{"-maxring", "3"},
			{"-lockstep=false"}, // the removed engine route flag
			{"-lanewidth", "8"}, // the removed block width flag
			{"-timings"},        // the removed campaign wall time
		}},
		{"search", [][]string{
			{"-progress", "-1"},
			{"-lockstep=false"},
		}},
		{"mirror", [][]string{
			{"-patience", "50"}, // the removed stall patience: the lasso decides
			{"-n", "2"},         // below Theorem 5.1's n >= 3
		}},
	}
	for _, c := range cases {
		t.Run(c.command, func(t *testing.T) {
			for _, flags := range c.bad {
				args := append([]string{c.command}, flags...)
				if err := run(context.Background(), args, &bytes.Buffer{}, io.Discard); err == nil {
					t.Errorf("pef %v: want an error", args)
				}
			}
		})
	}
}

// TestObservabilityFlagsKeepStdout pins the telemetry contract at the CLI
// layer: -progress, -trace-events and -telemetry-addr must not perturb a
// single stdout byte, so BENCH_*.json captures and campaign reports stay
// comparable with them enabled.
func TestObservabilityFlagsKeepStdout(t *testing.T) {
	campaign := []string{"-family", "boundary", "-count", "40", "-maxring", "8"}
	cases := []struct {
		name         string
		run          runFunc
		base         []string
		every, progr string
	}{
		{"experiments", runExperiments, []string{"-quick", "-seeds", "2", "-json", "-only", "E-T1.R5"}, "1", "progress: 1 jobs retired"},
		{"scenarios", runScenarios, campaign, "10", "progress: 10/40 scenarios"},
		{"scenarios-json", runScenarios, append([]string{"-json"}, campaign...), "10", "progress: 10/40 scenarios"},
		{"search", runSearch, searchBase, "2", "progress: generation 2/4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var plain bytes.Buffer
			if err := c.run(context.Background(), c.base, &plain, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", c.base, err)
			}
			trace := filepath.Join(t.TempDir(), "trace.jsonl")
			instrumented := append([]string{
				"-progress", c.every, "-trace-events", trace, "-telemetry-addr", "127.0.0.1:0",
			}, c.base...)
			var out, errOut bytes.Buffer
			if err := c.run(context.Background(), instrumented, &out, &errOut); err != nil {
				t.Fatalf("run(%v): %v", instrumented, err)
			}
			if plain.String() != out.String() {
				t.Fatalf("observability flags changed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s",
					plain.String(), out.String())
			}
			if !strings.Contains(errOut.String(), c.progr) {
				t.Errorf("stderr missing progress lines:\n%s", errOut.String())
			}
			if !strings.Contains(errOut.String(), "telemetry: serving http://") {
				t.Errorf("stderr missing telemetry address line:\n%s", errOut.String())
			}
		})
	}
}

// TestResumeRejectsCorruptWithoutRotation pins the no-rotation case for
// both checkpointing commands: a checksum-mismatched checkpoint with no
// siblings fails with the integrity error, never a silent restart.
func TestResumeRejectsCorruptWithoutRotation(t *testing.T) {
	cases := []struct {
		name     string
		run      runFunc
		halted   []string
		old, new string // a content change that stays valid JSON: only the checksum catches it
	}{
		{"scenarios", runScenarios, []string{"-family", "uniform", "-count", "20", "-maxring", "8", "-halt-after", "10"},
			`"generator": "uniform"`, `"generator": "uniforn"`},
		{"search", runSearch, append([]string{"-halt-after", "2"}, searchBase...), `"seed": 3`, `"seed": 4`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "solo.json")
			if err := c.run(context.Background(), append([]string{"-checkpoint", ckpt}, c.halted...), io.Discard, io.Discard); err != nil {
				t.Fatalf("halted run: %v", err)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			flipped := bytes.Replace(data, []byte(c.old), []byte(c.new), 1)
			if bytes.Equal(flipped, data) {
				t.Fatal("corruption did not land; fixture drifted")
			}
			if err := os.WriteFile(ckpt, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.run(context.Background(), []string{"-resume", ckpt}, io.Discard, io.Discard); err == nil ||
				!strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("corrupt resume: %v, want checksum mismatch", err)
			}
		})
	}
}

// TestHelperProcess is not a test: TestSecondInterruptKills re-executes
// the test binary into it to run main with the arguments after "--".
func TestHelperProcess(t *testing.T) {
	if os.Getenv("GO_WANT_HELPER_PROCESS") != "1" {
		return
	}
	args := os.Args
	for len(args) > 0 && args[0] != "--" {
		args = args[1:]
	}
	os.Args = append([]string{"pef"}, args[1:]...)
	main()
	os.Exit(0)
}

// TestSecondInterruptKills pins the drain contract of the draining
// commands: the first SIGINT starts a graceful drain, and a later one
// kills the process instead of being swallowed by the drain's handler.
func TestSecondInterruptKills(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperProcess$", "--",
		"experiments", "-seeds", "400", "-workers", "1", "-progress", "1")
	cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS=1")
	stderr, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// The first progress line means the sweep, and so its signal handler,
	// is running. Interrupt it, then keep interrupting: the drain (the
	// partial report of ~50k jobs) outlasts several ticks.
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("helper printed no progress line: %v", sc.Err())
	}
	go io.Copy(io.Discard, stderr)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(time.Minute)
	for {
		if err := cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("helper exited with %v, want death by SIGINT", err)
			}
			if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
				t.Fatalf("helper exited with %v, want death by SIGINT (the second interrupt was swallowed)", err)
			}
			return
		case <-tick.C:
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("helper survived a minute of SIGINTs")
		}
	}
}
