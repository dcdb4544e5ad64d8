package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in live introspection endpoint: a snapshot of a
// Registry as JSON plus the standard pprof handlers. It observes, it
// never participates — nothing in the engine reads from it, so its
// presence cannot perturb campaign output.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP introspection server on addr (":0" picks a free
// port — use Addr to discover it). Routes:
//
//	/            index: links to the routes below
//	/metrics     current Registry snapshot as JSON
//	/debug/pprof the standard net/http/pprof handlers
//
// snapshot is called per /metrics request; passing Registry.Snapshot of
// a nil registry is valid and serves an empty snapshot.
func Serve(addr string, snapshot func() Snapshot) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "pef telemetry endpoint")
		fmt.Fprintln(w, "  /metrics      registry snapshot (JSON)")
		fmt.Fprintln(w, "  /debug/pprof  runtime profiles")
	})
	mux.Handle("/metrics", MetricsHandler(snapshot))
	// The pprof package only auto-registers on http.DefaultServeMux;
	// wire its handlers onto the private mux explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Close() shutdown error is expected
	return s, nil
}

// MetricsHandler serves snapshot() as indented JSON: the one /metrics
// handler behind this endpoint, the lease fabric and the campaign
// service, each mounting it under its own route pattern.
func MetricsHandler(snapshot func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, snapshot())
	})
}

// WriteJSON writes v as an indented JSON response with the status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing to report to
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Close shuts the server down. Nil receiver: no-op, so callers can
// `defer srv.Close()` without guarding the disabled case.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
