// Package serve is the campaign-as-a-service daemon behind cmd/pefserve:
// a long-running HTTP server that runs scenario specs and whole
// campaigns on demand, streaming verdicts as JSON lines and reports as
// the exact bytes of the single-process pefscenarios run. In front of
// the engines sits the content-addressed verdict cache
// (internal/serve/cache) — duplicate specs across requests cost one
// simulation — plus per-client token-bucket rate limiting, bounded
// in-flight admission, and a graceful drain that lets open campaigns
// finish at a verdict boundary.
//
// Routes:
//
//	POST /run       one encoded Spec → its Verdict (?cache=off bypasses)
//	POST /campaign  CampaignRequest → optional JSONL verdicts + report
//	GET  /healthz   liveness + drain state
//	GET  /metrics   telemetry snapshot (engine, pool, cache, serve)
//
// Byte-identity invariant: the report a served campaign streams is
// byte-identical to the pefscenarios single-process run of the same
// config — cache on or off, any concurrency — because the server only
// rides scenario.StreamCampaign + Aggregate, whose bytes are invariant
// under worker count, lane width, engine path and (by the VerdictCache
// contract) caching.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pef/internal/scenario"
	"pef/internal/serve/cache"
	"pef/internal/telemetry"
)

// Config parameterizes New.
type Config struct {
	// Registry resolves spec names; nil means the process default.
	Registry *scenario.Registry
	// Cache, when non-nil, fronts the engines with the content-addressed
	// verdict store. Nil runs every request fresh.
	Cache *cache.Cache
	// Workers, LaneWidth and DisableLockstep size the campaign engine
	// exactly like CampaignConfig. They are server-owned — clients never
	// choose pool shapes, which keeps responses byte-identical across
	// deployments (the engine guarantees invariance anyway; this keeps
	// the knobs in one place). The worker pool is sized once per process:
	// every campaign runs under the same Workers budget, and MaxInFlight
	// bounds how many pools are live at once.
	Workers         int
	LaneWidth       int
	DisableLockstep bool
	// MaxInFlight bounds concurrently admitted /run + /campaign requests
	// (values < 1 mean 2×GOMAXPROCS); excess requests are refused with
	// 503 + Retry-After rather than queued.
	MaxInFlight int
	// Rate is the per-client admission rate in requests/second; <= 0
	// disables rate limiting. Burst is the bucket depth (values < 1 mean
	// ceil(Rate), at least 1). Clients are keyed by the ClientHeader
	// value when present, else the remote address host.
	Rate  float64
	Burst int
	// ClientHeader names the client-identity header; empty means
	// "X-Pefserve-Client".
	ClientHeader string
	// Telemetry instruments the engines and backs /metrics; its registry
	// also carries the serve.* counters (and cache.* when the Cache was
	// built on the same registry). Nil means a fresh private bundle.
	Telemetry *scenario.Telemetry
	// Now injects a clock for the rate limiter (tests); nil means
	// time.Now.
	Now func() time.Time
	// Logf receives server lifecycle lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server handles the routes above. Create with New; it is an
// http.Handler.
type Server struct {
	cfg      Config
	reg      *scenario.Registry
	tel      *scenario.Telemetry
	store    *cache.Cache
	limiter  *rateLimiter
	inflight chan struct{}
	mux      *http.ServeMux

	draining  atomic.Bool
	abortOnce sync.Once
	abortCh   chan struct{}

	requests, runs, campaigns          *telemetry.Counter
	rejectedDraining, rejectedBusy     *telemetry.Counter
	rateLimited, interruptedCampaigns  *telemetry.Counter
	verdictsStreamed, verdictsReturned *telemetry.Counter
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = scenario.DefaultRegistry()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = scenario.NewTelemetry()
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.ClientHeader == "" {
		cfg.ClientHeader = "X-Pefserve-Client"
	}
	reg := cfg.Telemetry.Registry()
	s := &Server{
		cfg:                  cfg,
		reg:                  cfg.Registry,
		tel:                  cfg.Telemetry,
		store:                cfg.Cache,
		inflight:             make(chan struct{}, cfg.MaxInFlight),
		abortCh:              make(chan struct{}),
		requests:             reg.Counter("serve.requests"),
		runs:                 reg.Counter("serve.runs"),
		campaigns:            reg.Counter("serve.campaigns"),
		rejectedDraining:     reg.Counter("serve.rejected.draining"),
		rejectedBusy:         reg.Counter("serve.rejected.busy"),
		rateLimited:          reg.Counter("serve.rejected.rateLimited"),
		interruptedCampaigns: reg.Counter("serve.campaigns.interrupted"),
		verdictsStreamed:     reg.Counter("serve.verdictLines"),
		verdictsReturned:     reg.Counter("serve.verdicts"),
	}
	if cfg.Rate > 0 {
		s.limiter = newRateLimiter(cfg.Rate, cfg.Burst, cfg.Now)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", telemetry.MetricsHandler(s.tel.Snapshot))
	mux.HandleFunc("POST /run", s.admit(s.handleRun))
	mux.HandleFunc("POST /campaign", s.admit(s.handleCampaign))
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// StartDrain stops admitting work: subsequent /run and /campaign
// requests get 503 and /healthz flips to draining, while requests
// already admitted keep streaming to completion. Idempotent.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining: refusing new work, open requests finish")
	}
}

// Abort makes open campaign streams stop at their next verdict boundary
// with a loud trailer line — the hard edge of a drain whose grace
// expired. Idempotent.
func (s *Server) Abort() {
	s.abortOnce.Do(func() {
		s.logf("serve: aborting open campaigns at the next verdict boundary")
		close(s.abortCh)
	})
}

// admit wraps a work handler with the admission pipeline: drain check,
// per-client rate limit (429 + Retry-After), bounded in-flight slots
// (503 + Retry-After).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		if s.draining.Load() {
			s.rejectedDraining.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining; submit to another instance")
			return
		}
		if s.limiter != nil {
			client := s.clientKey(r)
			if ok, wait := s.limiter.allow(client); !ok {
				s.rateLimited.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("rate limit exceeded for client %q; retry after %ds", client, retryAfterSeconds(wait)))
				return
			}
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.rejectedBusy.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("server is at its in-flight capacity (%d)", s.cfg.MaxInFlight))
			return
		}
		h(w, r)
	}
}

// clientKey identifies a client for rate limiting: the configured header
// when present, else the remote address host.
func (s *Server) clientKey(r *http.Request) string {
	if v := r.Header.Get(s.cfg.ClientHeader); v != "" {
		return v
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

type healthzResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		telemetry.WriteJSON(w, http.StatusServiceUnavailable, healthzResponse{Status: "draining", Draining: true})
		return
	}
	telemetry.WriteJSON(w, http.StatusOK, healthzResponse{Status: "ok"})
}

// handleRun executes one encoded Spec and returns its Verdict. With a
// cache configured the verdict is content-addressed: identical specs hit
// the store, concurrent identical requests coalesce onto one simulation,
// and the X-Pef-Cache header reports hit/miss/coalesced/bypass. Specs
// using unregistered extensions cannot be cached (their names are
// process-local); such requests fail loudly with 400 unless ?cache=off
// opts out.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.runs.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	var spec scenario.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	if spec.Version != scenario.Version {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unsupported spec version %d (want %d)", spec.Version, scenario.Version))
		return
	}

	var v scenario.Verdict
	status := "bypass"
	if s.store != nil && r.URL.Query().Get("cache") != "off" {
		key, err := cache.Key(spec)
		if err != nil {
			// Loud by design: silently bypassing would hide that a custom
			// registration is being served uncached.
			writeError(w, http.StatusBadRequest, fmt.Sprintf("%v; resubmit with ?cache=off to run it uncached", err))
			return
		}
		v, status, err = s.store.GetOrRun(r.Context(), key, func() scenario.Verdict {
			return s.runOne(r, spec)
		})
		if err != nil {
			return // the requester's context is gone; nobody is listening
		}
	} else {
		v = s.runOne(r, spec)
	}
	s.verdictsReturned.Inc()
	w.Header().Set("X-Pef-Cache", status)
	code := http.StatusOK
	if v.Err != "" {
		// The spec never produced a run (validation failure, panic,
		// cancellation): a client error, reported with the full verdict.
		code = http.StatusBadRequest
	}
	telemetry.WriteJSON(w, code, v)
}

// runOne executes one spec under the server's registry and telemetry.
func (s *Server) runOne(r *http.Request, spec scenario.Spec) scenario.Verdict {
	v, err := scenario.RunWith(r.Context(), spec, scenario.RunOptions{Registry: s.reg, Telemetry: s.tel})
	if err != nil && v.Err == "" {
		v.Err = err.Error()
		v.OK = false
	}
	return v
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	telemetry.WriteJSON(w, code, errorBody{Error: "pefserve: " + msg})
}
