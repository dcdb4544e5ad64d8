package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"pef/internal/durable"
	"pef/internal/dynamics"
	"pef/internal/dyngraph"
	"pef/internal/ring"
	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// newFlagSet returns the flag set of command name; parse errors and -h
// usage go to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("pef "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// interruptible runs a draining command under a context that the first
// SIGINT/SIGTERM cancels, so the command can stop at a clean boundary.
// Cancellation also unregisters the handler: Go holds back the default
// (exit) behaviour until the stop function runs, so without that a second
// signal would be swallowed instead of killing the process.
func interruptible(run runFunc) runFunc {
	return func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		go func() { <-ctx.Done(); stop() }()
		return run(ctx, args, stdout, stderr)
	}
}

// observability is the -telemetry-addr/-trace-events flag group of
// experiments, scenarios and search. None of it writes stdout, so
// reports, JSON documents and checkpoints are byte-identical with these
// flags on or off.
type observability struct {
	addr, trace string
	open        []io.Closer
}

// addObservability registers the group on fs; events names the lifecycle
// the trace records ("sweep", "campaign", "search").
func addObservability(fs *flag.FlagSet, events string) *observability {
	o := &observability{}
	fs.StringVar(&o.addr, "telemetry-addr", "", "serve the live telemetry snapshot and pprof on this address (\":0\" picks a free port)")
	fs.StringVar(&o.trace, "trace-events", "", "write "+events+" lifecycle events to this path as JSONL")
	return o
}

// start serves snapshot (called only under -telemetry-addr) and announces
// the bound address on stderr, then opens the -trace-events tracer. The
// tracer is nil without -trace-events; a nil Tracer drops every event.
// close releases what start opened, even when it failed.
func (o *observability) start(snapshot func() telemetry.Snapshot, stderr io.Writer) (*telemetry.Tracer, error) {
	if o.addr != "" {
		srv, err := telemetry.Serve(o.addr, snapshot)
		if err != nil {
			return nil, err
		}
		o.open = append(o.open, srv)
		fmt.Fprintf(stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	if o.trace == "" {
		return nil, nil
	}
	f, err := os.Create(o.trace)
	if err != nil {
		return nil, err
	}
	o.open = append(o.open, f)
	return telemetry.NewTracer(f), nil
}

func (o *observability) close() {
	for _, c := range o.open {
		c.Close()
	}
}

// progressEvery is the -progress flag of experiments, scenarios and
// search: a stderr line every N units of progress (retired jobs,
// aggregated scenarios, generations); 0 prints none. It writes only
// stderr, so stdout stays byte-identical.
type progressEvery int

// addProgress registers -progress on fs; unit names what it counts.
func addProgress(fs *flag.FlagSet, unit string) *progressEvery {
	p := new(progressEvery)
	fs.IntVar((*int)(p), "progress", 0, "print a progress line to stderr every N "+unit)
	return p
}

func (p progressEvery) validate() error {
	if p < 0 {
		return fmt.Errorf("-progress must be >= 0, got %d", p)
	}
	return nil
}

// due reports whether n units of progress are due a line.
func (p progressEvery) due(n int) bool { return p > 0 && n%int(p) == 0 }

// checkpointFlags is the -checkpoint/-checkpoint-every/-halt-after/-resume
// group of scenarios and search. Both count progress in their own unit
// (aggregated scenarios, generations) and write through internal/durable.
type checkpointFlags struct {
	path, resume string
	every, halt  int
	run          string // "campaign" or "search", for the error messages
	prog         string // the command, for the fallback warning
}

// addCheckpointFlags registers the group on fs; unit names what
// -checkpoint-every and -halt-after count.
func addCheckpointFlags(fs *flag.FlagSet, run, unit string) *checkpointFlags {
	c := &checkpointFlags{run: run, prog: fs.Name()}
	fs.StringVar(&c.path, "checkpoint", "", "write a resumable checkpoint to this path on finish or halt")
	fs.IntVar(&c.every, "checkpoint-every", 0, "write a rotating checkpoint every N "+unit)
	fs.IntVar(&c.halt, "halt-after", 0, "stop cleanly after this many "+unit+" (requires -checkpoint)")
	fs.StringVar(&c.resume, "resume", "", "resume the "+run+" checkpointed at this path")
	return c
}

func (c *checkpointFlags) validate() error {
	switch {
	case c.halt < 0:
		return fmt.Errorf("-halt-after must be >= 0, got %d", c.halt)
	case c.halt > 0 && c.path == "":
		return fmt.Errorf("-halt-after requires -checkpoint (a halted %s without one is unrecoverable)", c.run)
	case c.every < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", c.every)
	case c.every > 0 && c.path == "":
		return fmt.Errorf("-checkpoint-every requires -checkpoint (it rotates that path)")
	}
	return nil
}

// resumeFrom reads the -resume checkpoint, falling back to its rotation
// files (P.1, then P.2) with a stderr warning when P is corrupt. It
// returns the zero T without -resume.
func resumeFrom[T any](c *checkpointFlags, decode func([]byte) (T, error), stderr io.Writer) (T, error) {
	if c.resume == "" {
		var zero T
		return zero, nil
	}
	return durable.ReadFallback(c.resume, decode, stderr, c.prog)
}

// rotates reports whether n units of progress are due a rotation.
func (c *checkpointFlags) rotates(n int) bool { return c.every > 0 && n%c.every == 0 }

// save writes one checkpoint — kind "rotating" to the P.1/P.2 rotation,
// "final" atomically to P — and records it in the event trace.
func (c *checkpointFlags) save(tracer *telemetry.Tracer, kind string, done int, encode func() ([]byte, error)) error {
	data, err := encode()
	if err != nil {
		return err
	}
	write := durable.WriteAtomic
	if kind == "rotating" {
		write = durable.WriteRotating
	}
	if err := write(c.path, data); err != nil {
		return err
	}
	tracer.Emit("checkpoint-written", map[string]any{"kind": kind, "done": done})
	return nil
}

// writeCampaign writes a campaign aggregate as the report, or with jsonOut
// as the versioned campaign document, followed by trailer, and returns
// the error that fails the process when any scenario violates its
// predicate.
func writeCampaign(w io.Writer, agg *scenario.Aggregate, jsonOut bool, trailer string) error {
	write := agg.WriteReport
	if jsonOut {
		write = agg.WriteJSON
	}
	if err := write(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, trailer); err != nil {
		return err
	}
	if n := len(agg.Violations()); n > 0 {
		return fmt.Errorf("%d of %d scenario(s) violate the paper's predicates", n, agg.Done())
	}
	return nil
}

// buildGraph builds the oblivious dynamics families sim and journey share
// (static, bernoulli, eventual-missing, t-interval, roving, chain). Their
// parameters come straight from flags, so the ranges the constructors
// would panic on are rejected here first.
func buildGraph(name string, n int, p float64, edge, from, tint, period int, seed uint64) (dyngraph.EvolvingGraph, error) {
	if n < ring.MinSize {
		return nil, fmt.Errorf("ring size must be >= %d, got %d", ring.MinSize, n)
	}
	if (name == "eventual-missing" || name == "chain") && (edge < 0 || edge >= n) {
		return nil, fmt.Errorf("-edge must be in [0,%d) on a %d-node ring, got %d", n, n, edge)
	}
	switch name {
	case "static":
		return dyngraph.NewStatic(n), nil
	case "bernoulli":
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("-p must be in [0,1], got %v", p)
		}
		return dynamics.NewBernoulli(n, p, seed), nil
	case "eventual-missing":
		base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0x51DE)
		return dyngraph.NewEventualMissing(base, edge, from), nil
	case "t-interval":
		if tint < 1 {
			return nil, fmt.Errorf("-t must be >= 1, got %d", tint)
		}
		return dynamics.NewTInterval(n, tint, seed), nil
	case "roving":
		if period < 1 {
			return nil, fmt.Errorf("-period must be >= 1, got %d", period)
		}
		return dynamics.NewRovingMissing(n, period), nil
	case "chain":
		base := dynamics.NewBoundedRecurrence(dynamics.NewBernoulli(n, 0.7, seed), 4, seed^0xC4A1)
		return dynamics.NewChain(base, edge), nil
	default:
		return nil, fmt.Errorf("unknown dynamics %q", name)
	}
}
