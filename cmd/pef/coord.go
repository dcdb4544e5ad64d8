package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"pef/internal/harness"
	"pef/internal/lease"
	"pef/internal/scenario"
	"pef/internal/telemetry"
)

// runCoord is the leased campaign coordinator: it partitions a
// scenario campaign's canonical spec stream into contiguous blocks,
// leases them to pef scenarios worker processes over a small HTTP/JSON
// API (/lease, /heartbeat, /ack), and folds the acked per-block
// checkpoints into the canonical campaign report.
//
// Fault tolerance is the point: every lease carries an epoch and a
// fencing token, heartbeats keep it alive, and a worker that dies — or
// takes a lease and vanishes — loses the block to a bounded re-lease.
// The determinism bar of the rest of the repository still holds: for a
// fixed campaign the merged report is byte-identical to a single-process
// `pef scenarios` run, for any worker fleet and any failure pattern
// (blocks are deterministic functions of the campaign identity, so it
// never matters which worker incarnation computed one).
//
//	# coordinator (prints the report when every block is acked)
//	pef coord -family boundary -count 200 -seeds 2 -blocks 6 \
//	          -listen 127.0.0.1:7077
//
//	# workers (any number, anywhere that can reach the coordinator)
//	pef scenarios -worker-coord http://127.0.0.1:7077 -worker-id w1
//
// Flags:
//
//	-listen A         listen address (default 127.0.0.1:0 — a free port)
//	-addr-file P      write the bound address to P (for scripts racing
//	                  against ":0")
//	-count N          scenarios generated per seed (default 100)
//	-seed N           base generator seed (default 1)
//	-seeds N          sweep N consecutive generator seeds starting at -seed
//	-family F         generator: uniform, boundary, markov, adversarial,
//	                  registered
//	-families F,G     restrict the "registered" generator's family pool
//	-maxring N        largest sampled ring size (default 16)
//	-blocks B         lease granularity: the stream is split into B
//	                  contiguous blocks (default 8, capped at the stream
//	                  length)
//	-heartbeat-timeout D
//	                  a lease with no heartbeat for D is expired and its
//	                  block re-leased (default 5s)
//	-max-epochs N     a block leased N times without an ack fails the
//	                  campaign loudly (default 16)
//	-linger D         after the report is written, keep serving "done" to
//	                  workers for D so they exit cleanly (default 2s)
//	-json             emit the versioned campaign document instead of the
//	                  report
//
// The lease fabric serves live introspection on the same listener: GET
// /status (lease-fabric state) and GET /metrics (telemetry snapshot:
// lease.granted/expired/reLeased/... counters, lease.ackLatencyMillis
// histogram). At exit a summary line lands on stderr; at completion
// every expired lease has been re-leased, so its expired= and reLeased=
// fields agree — the observable recovery invariant CI asserts.
//
// The process exits non-zero when any scenario violates its predicate,
// when the campaign fails (a block exhausted -max-epochs), or on
// SIGINT/SIGTERM.
func runCoord(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("coord", stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "listen address (\":0\" picks a free port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file")
		count     = fs.Int("count", 100, "scenarios generated per seed")
		seed      = fs.Uint64("seed", 1, "base generator seed")
		seeds     = fs.Int("seeds", 1, "number of consecutive generator seeds, starting at -seed")
		family    = fs.String("family", "uniform", "generator (see pef scenarios -list)")
		families  = fs.String("families", "", "comma-separated family pool for the registered generator")
		maxRing   = fs.Int("maxring", 16, "largest sampled ring size")
		blocks    = fs.Int("blocks", 8, "contiguous lease blocks the stream is split into")
		hbTimeout = fs.Duration("heartbeat-timeout", 5*time.Second, "expire a lease after this long without a heartbeat")
		maxEpochs = fs.Int("max-epochs", 16, "fail the campaign when a block is leased this many times without an ack")
		linger    = fs.Duration("linger", 2*time.Second, "keep serving \"done\" to workers for this long after the report")
		jsonOut   = fs.Bool("json", false, "emit the versioned campaign document")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *count < 1 {
		return fmt.Errorf("-count must be >= 1, got %d", *count)
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *blocks < 1 {
		return fmt.Errorf("-blocks must be >= 1, got %d", *blocks)
	}

	coord, err := lease.New(lease.Config{
		Campaign: lease.Campaign{
			Generator: *family,
			Gen:       scenario.GenConfig{MaxRing: *maxRing, Families: *families},
			Count:     *count,
			Seeds:     harness.Seeds(*seed, *seeds),
			Blocks:    *blocks,
		},
		HeartbeatTimeout: *hbTimeout,
		MaxEpochs:        *maxEpochs,
		Registry:         telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	srv, err := lease.Serve(*listen, coord)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			return err
		}
	}
	camp := coord.Campaign()
	fmt.Fprintf(stderr, "pef coord: serving http://%s — %d scenarios (generator=%s, count=%d, seeds=%d) in %d blocks\n",
		srv.Addr(), camp.Total(), camp.Generator, camp.Count, len(camp.Seeds), camp.Blocks)

	select {
	case <-coord.Done():
	case <-ctx.Done():
		st := coord.Status()
		fmt.Fprintln(stderr, "pef coord:", st.Summary())
		return fmt.Errorf("interrupted with %d of %d blocks acked", st.Acked, st.Blocks)
	}
	agg, err := coord.Result()
	fmt.Fprintln(stderr, "pef coord:", coord.Status().Summary())
	if err != nil {
		return err
	}
	err = writeCampaign(stdout, agg, *jsonOut, "")
	// Give the fleet a beat to poll /lease, see "done", and exit cleanly
	// before the listener disappears under them.
	if *linger > 0 {
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	return err
}
