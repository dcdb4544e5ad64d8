package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pef/internal/telemetry"
)

// Protocol request bodies. Responses are LeaseResponse, AckResponse, and
// Status; errors render as errorBody with a status code that encodes the
// class: 409 Conflict for fencing rejections (ErrStale), 400 Bad Request
// for malformed or invalid payloads.
type (
	// LeaseRequest asks for the next pending block.
	LeaseRequest struct {
		Worker string `json:"worker"`
	}
	// HeartbeatRequest extends a held lease.
	HeartbeatRequest struct {
		Worker string `json:"worker"`
		Block  int    `json:"block"`
		Token  uint64 `json:"token"`
	}
	// AckRequest delivers a completed block checkpoint (the exact bytes
	// scenario.Checkpoint.Encode produced — the embedded checksum rides
	// along, so transit corruption is caught by the same integrity check
	// that guards on-disk checkpoints).
	AckRequest struct {
		Worker     string          `json:"worker"`
		Block      int             `json:"block"`
		Token      uint64          `json:"token"`
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	// AckResponse reports whether the ack was an idempotent duplicate.
	AckResponse struct {
		Duplicate bool `json:"duplicate,omitempty"`
	}
	errorBody struct {
		Error string `json:"error"`
	}
)

// Handler serves the lease protocol for a coordinator:
//
//	POST /lease      LeaseRequest     -> LeaseResponse
//	POST /heartbeat  HeartbeatRequest -> {} | 409
//	POST /ack        AckRequest       -> AckResponse | 409 | 400
//	GET  /status     -> Status
//	GET  /metrics    -> telemetry snapshot (empty when no Registry)
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, c.Lease(req.Worker))
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.Block, req.Token); err != nil {
			writeError(w, err)
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc("POST /ack", func(w http.ResponseWriter, r *http.Request) {
		var req AckRequest
		if !decodeBody(w, r, &req) {
			return
		}
		dup, err := c.Ack(req.Block, req.Token, req.Checkpoint)
		if err != nil {
			writeError(w, err)
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, AckResponse{Duplicate: dup})
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		telemetry.WriteJSON(w, http.StatusOK, c.Status())
	})
	mux.Handle("GET /metrics", telemetry.MetricsHandler(c.cfg.Registry.Snapshot))
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "pefcoord lease fabric")
		fmt.Fprintln(w, "  POST /lease /heartbeat /ack   worker protocol")
		fmt.Fprintln(w, "  GET  /status                  lease-fabric state (JSON)")
		fmt.Fprintln(w, "  GET  /metrics                 telemetry snapshot (JSON)")
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		telemetry.WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("lease: bad request body: %v", err)})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrStale) {
		code = http.StatusConflict
	}
	telemetry.WriteJSON(w, code, errorBody{Error: err.Error()})
}

// Server runs a coordinator's Handler on a TCP listener, with a
// background expiry tick so silent leases lapse even when no request
// traffic drives the sweep.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	stop chan struct{}
}

// Serve starts the lease endpoint on addr (":0" picks a free port; Addr
// reports the choice).
func Serve(addr string, c *Coordinator) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lease: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(c), ReadHeaderTimeout: 5 * time.Second},
		stop: make(chan struct{}),
	}
	go s.srv.Serve(ln) //nolint:errcheck // Close() shutdown error is expected
	tick := c.Timeout() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Expire()
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the expiry ticker and shuts the server down. Nil receiver:
// no-op.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	close(s.stop)
	return s.srv.Close()
}
