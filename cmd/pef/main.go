// Command pef is the command-line front end of this reproduction of
// "Computability of Perpetual Exploration in Highly Dynamic Rings": one
// binary whose subcommands run the paper's constructions, regenerate its
// table and figures, and drive the scenario campaign, search and service
// stack.
//
//	pef <command> [flags]     # pef <command> -h lists the flags
//
// Each command is documented on its run function (runSim, runScenarios,
// …); the flag groups several commands share live in flags.go. Every
// command exits non-zero on error, and the campaign-style commands also
// when a run violates the paper's predictions, so CI can trust the exit
// code.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
)

// runFunc is a command's entry point: its flags, stdout and stderr. ctx is
// cancelled by SIGINT/SIGTERM for the commands that drain.
type runFunc func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// commands is the dispatcher table, in the order the usage lists them.
var commands = []struct {
	name, summary string
	run           runFunc
}{
	{"sim", "run one synchronous execution and report the exploration verdict", runSim},
	{"adversary", "run the Theorem 4.1/5.1 confinement adversaries against the algorithms", runAdversary},
	{"table", "regenerate Table 1 of the paper empirically", runTable},
	{"mirror", "build and verify the Lemma 4.1 mirror gadget (Figure 1) live", runMirror},
	{"journey", "analyze the temporal structure of a dynamics class", runJourney},
	{"experiments", "run the experiment index: every table and figure plus the extensions", interruptible(runExperiments)},
	{"scenarios", "sweep generated scenarios through the property oracle", interruptible(runScenarios)},
	{"search", "steer a scenario search toward the theorem boundary", interruptible(runSearch)},
	{"serve", "serve specs and campaigns over HTTP with a verdict cache", interruptible(runServe)},
	{"coord", "lease a campaign's blocks to scenarios workers and merge the report", interruptible(runCoord)},
	{"benchdiff", "diff two campaign documents or boundary reports", runBenchdiff},
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run dispatches args[0] to its command. Errors come back prefixed with
// "pef <command>:", the way main prints them.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var usage strings.Builder
	usage.WriteString("usage: pef <command> [flags]\n\ncommands:")
	for _, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			if err := c.run(ctx, args[1:], stdout, stderr); err != nil {
				return fmt.Errorf("pef %s: %w", c.name, err)
			}
			return nil
		}
		fmt.Fprintf(&usage, "\n  %-12s %s", c.name, c.summary)
	}
	if len(args) == 0 {
		return fmt.Errorf("pef: missing command\n%s", usage.String())
	}
	return fmt.Errorf("pef: unknown command %q\n%s", args[0], usage.String())
}
