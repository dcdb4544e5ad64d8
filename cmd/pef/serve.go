package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"pef/internal/scenario"
	"pef/internal/serve"
	"pef/internal/serve/cache"
)

// runServe is the campaign-as-a-service daemon: a long-running
// HTTP server that accepts scenario specs and campaign configs as
// JSON/JSONL and streams back verdicts and reports, with a shared worker
// pool sized once per process and a content-addressed verdict cache in
// front of the engines — resubmitting a campaign costs cache lookups,
// not simulations.
//
//	pef serve -listen 127.0.0.1:7080 -spill /var/tmp/pef.spill
//
//	curl -s -XPOST localhost:7080/campaign \
//	     -d '{"generator":"boundary","count":200,"seeds":[1,2]}'
//
// The report a served campaign streams is byte-identical to the
// single-process `pef scenarios` run of the same config — cache on or
// off, any concurrency.
//
// Routes (see internal/serve):
//
//	POST /run       one encoded Spec → its Verdict (?cache=off bypasses)
//	POST /campaign  campaign config → optional JSONL verdicts + report
//	GET  /healthz   liveness + drain state
//	GET  /metrics   telemetry snapshot (engine, pool, cache.*, serve.*)
//
// Flags:
//
//	-listen A         listen address (default 127.0.0.1:0 — a free port)
//	-addr-file P      write the bound address to P (for scripts racing
//	                  against ":0")
//	-workers N        campaign worker pool size (<1 means GOMAXPROCS)
//	-lanewidth N      scenarios batched per worker job (<1 means 1024)
//	-lockstep         use the bit-parallel lane engine (default true)
//	-cache-bytes N    verdict cache capacity (default 256 MiB; 0 disables
//	                  the cache entirely)
//	-spill P          warm the cache from P at startup and spill it back
//	                  on drain (requires the cache)
//	-rate R           per-client admission rate in requests/second
//	                  (0 disables rate limiting)
//	-burst N          rate-limit bucket depth (<1 means ceil(rate))
//	-max-inflight N   concurrently admitted requests (<1 means
//	                  2×GOMAXPROCS); excess get 503 + Retry-After
//	-drain-grace D    how long a SIGINT/SIGTERM drain lets open requests
//	                  finish before aborting them (default 30s)
//
// On SIGINT/SIGTERM the server stops admitting work (503, /healthz
// flips to draining), lets open streams finish within -drain-grace,
// aborts stragglers at a verdict boundary with a loud trailer, spills
// the cache, and logs "drained cleanly". A second signal kills the
// process immediately.
func runServe(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:0", "listen address (\":0\" picks a free port)")
		addrFile    = fs.String("addr-file", "", "write the bound address to this file")
		workers     = fs.Int("workers", 0, "campaign worker pool size (<1 means GOMAXPROCS)")
		laneWidth   = fs.Int("lanewidth", 0, "scenarios batched per worker job for lane packing (<1 means 1024)")
		lockstep    = fs.Bool("lockstep", true, "run eligible scenarios on the bit-parallel lane engine")
		cacheBytes  = fs.Int64("cache-bytes", 256<<20, "verdict cache capacity in bytes (0 disables the cache)")
		spill       = fs.String("spill", "", "warm the cache from this file at startup, spill back on drain")
		rate        = fs.Float64("rate", 0, "per-client admission rate in requests/second (0 disables)")
		burst       = fs.Int("burst", 0, "rate-limit bucket depth (<1 means ceil(rate))")
		maxInFlight = fs.Int("max-inflight", 0, "concurrently admitted requests (<1 means 2×GOMAXPROCS)")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a drain lets open requests finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *spill != "" && *cacheBytes == 0 {
		return errors.New("-spill requires the verdict cache; remove -cache-bytes=0")
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }

	tel := scenario.NewTelemetry()
	var store *cache.Cache
	if *cacheBytes > 0 {
		store = cache.New(cache.Config{Capacity: *cacheBytes, Telemetry: tel.Registry()})
		if *spill != "" {
			warmed, err := store.WarmFromSpill(*spill, logf)
			if err != nil {
				return fmt.Errorf("warming cache from %s: %w", *spill, err)
			}
			if warmed > 0 {
				logf("pef serve: warmed %d cached verdicts from %s", warmed, *spill)
			}
		}
	}

	srv := serve.New(serve.Config{
		Cache:           store,
		Workers:         *workers,
		LaneWidth:       *laneWidth,
		DisableLockstep: !*lockstep,
		MaxInFlight:     *maxInFlight,
		Rate:            *rate,
		Burst:           *burst,
		Telemetry:       tel,
		Logf:            logf,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	logf("pef serve: serving http://%s (cache=%s, rate=%s)",
		ln.Addr(), describeCache(store, *cacheBytes), describeRate(*rate))

	hsrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logf("pef serve: signal received; draining (grace %s)", *drainGrace)
	srv.StartDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := hsrv.Shutdown(graceCtx); err != nil {
		// Grace expired with streams still open: abort them at their next
		// verdict boundary and give the trailers a beat to flush.
		srv.Abort()
		abortCtx, cancelAbort := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancelAbort()
		if err := hsrv.Shutdown(abortCtx); err != nil {
			hsrv.Close()
		}
	}
	if store != nil && *spill != "" {
		n, err := store.WriteSpill(*spill)
		if err != nil {
			return fmt.Errorf("spilling cache to %s: %w", *spill, err)
		}
		logf("pef serve: spilled %d cached verdicts to %s", n, *spill)
	}
	logf("pef serve: drained cleanly")
	return nil
}

func describeCache(store *cache.Cache, capacity int64) string {
	if store == nil {
		return "off"
	}
	return fmt.Sprintf("%d MiB", capacity>>20)
}

func describeRate(rate float64) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%g req/s per client", rate)
}
