package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pef/internal/scenario"
	"pef/internal/serve/cache"
)

func testSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Version:   scenario.Version,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: scenario.PlaceEven,
		Family:    "bernoulli",
		Params:    scenario.Params{P: 0.5},
		Horizon:   50,
		Seed:      seed,
	}
}

func postJSON(t *testing.T, srv *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func get(srv *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func decodeVerdict(t *testing.T, body *bytes.Buffer) scenario.Verdict {
	t.Helper()
	var v scenario.Verdict
	if err := json.Unmarshal(body.Bytes(), &v); err != nil {
		t.Fatalf("decoding verdict: %v\nbody: %s", err, body.String())
	}
	return v
}

// TestRunServedEqualsDirect pins /run's core contract: the served
// verdict equals the direct in-process run — as a cold miss, a warm hit,
// and with the cache bypassed — with X-Pef-Cache reporting each path.
func TestRunServedEqualsDirect(t *testing.T) {
	srv := New(Config{Cache: cache.New(cache.Config{})})
	s := testSpec(40)
	want := scenario.Run(s)

	w := postJSON(t, srv, "/run", s)
	if w.Code != http.StatusOK {
		t.Fatalf("cold /run: code %d, body %s", w.Code, w.Body.String())
	}
	if st := w.Header().Get("X-Pef-Cache"); st != cache.StatusMiss {
		t.Fatalf("cold X-Pef-Cache = %q, want %q", st, cache.StatusMiss)
	}
	if got := decodeVerdict(t, w.Body); got != want {
		t.Fatalf("served verdict diverged from direct run:\n got %+v\nwant %+v", got, want)
	}

	w = postJSON(t, srv, "/run", s)
	if st := w.Header().Get("X-Pef-Cache"); st != cache.StatusHit {
		t.Fatalf("warm X-Pef-Cache = %q, want %q", st, cache.StatusHit)
	}
	if got := decodeVerdict(t, w.Body); got != want {
		t.Fatal("cached verdict diverged from direct run")
	}

	w = postJSON(t, srv, "/run?cache=off", s)
	if st := w.Header().Get("X-Pef-Cache"); st != "bypass" {
		t.Fatalf("bypass X-Pef-Cache = %q, want \"bypass\"", st)
	}
	if got := decodeVerdict(t, w.Body); got != want {
		t.Fatal("bypassed verdict diverged from direct run")
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	srv := New(Config{})

	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(`{"ring": 8, "typo": 1}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "typo") {
		t.Fatalf("unknown field: code %d, body %s", w.Code, w.Body.String())
	}

	s := testSpec(41)
	s.Version = scenario.Version + 7
	if w := postJSON(t, srv, "/run", s); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "unsupported spec version") {
		t.Fatalf("foreign version: code %d, body %s", w.Code, w.Body.String())
	}
}

// TestRunUnfingerprintableFailsLoudly: caching was requested (the server
// has a cache and the client did not opt out) for a spec whose names are
// outside the built-in surface — that is a loud 400 with the opt-out
// spelled out, never a silent uncached run.
func TestRunUnfingerprintableFailsLoudly(t *testing.T) {
	srv := New(Config{Cache: cache.New(cache.Config{})})
	s := testSpec(42)
	s.Algorithm = "my-custom-walker"
	w := postJSON(t, srv, "/run", s)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("code %d, want 400; body %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	if !strings.Contains(body, "cache=off") || !strings.Contains(body, "my-custom-walker") {
		t.Fatalf("400 body does not explain the failure and the opt-out: %s", body)
	}
}

func directCampaign(t *testing.T, ccfg scenario.CampaignConfig, asJSON bool) string {
	t.Helper()
	agg, err := scenario.NewAggregate(ccfg)
	if err != nil {
		t.Fatalf("NewAggregate: %v", err)
	}
	for v, serr := range scenario.StreamCampaign(context.Background(), ccfg) {
		if serr != nil {
			t.Fatalf("StreamCampaign: %v", serr)
		}
		agg.Add(v)
	}
	var buf bytes.Buffer
	if asJSON {
		err = agg.WriteJSON(&buf)
	} else {
		err = agg.WriteReport(&buf)
	}
	if err != nil {
		t.Fatalf("writing aggregate: %v", err)
	}
	return buf.String()
}

// TestCampaignByteIdentity is the tentpole invariant: the report a
// served campaign streams is byte-identical to the single-process
// pef scenarios run of the same config — on a cold cache, a warm cache,
// and with the cache off.
func TestCampaignByteIdentity(t *testing.T) {
	req := CampaignRequest{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     48,
		Seeds:     []uint64{5},
	}
	want := directCampaign(t, scenario.CampaignConfig{
		Generator: req.Generator,
		Gen:       req.Gen,
		Count:     req.Count,
		Seeds:     req.Seeds,
		Workers:   4,
	}, false)

	tel := scenario.NewTelemetry()
	srv := New(Config{
		Cache:     cache.New(cache.Config{Telemetry: tel.Registry()}),
		Workers:   4,
		Telemetry: tel,
	})
	for _, pass := range []string{"cold", "warm"} {
		w := postJSON(t, srv, "/campaign", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s /campaign: code %d, body %s", pass, w.Code, w.Body.String())
		}
		if got := w.Body.String(); got != want {
			t.Fatalf("%s served report diverged from direct bytes:\n--- served ---\n%s\n--- direct ---\n%s", pass, got, want)
		}
	}
	if hits := srv.tel.Snapshot().Counters["cache.hits"]; hits < int64(req.Count) {
		t.Fatalf("warm pass hit %d of %d", hits, req.Count)
	}

	off := req
	off.Cache = "off"
	if w := postJSON(t, srv, "/campaign", off); w.Body.String() != want {
		t.Fatal("cache-off served report diverged from direct bytes")
	}
}

// TestCampaignVerdictLines: verdicts:true prepends one JSON line per
// verdict; the remainder of the stream is still the byte-identical
// report.
func TestCampaignVerdictLines(t *testing.T) {
	req := CampaignRequest{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     16,
		Seeds:     []uint64{5},
		Verdicts:  true,
	}
	want := directCampaign(t, scenario.CampaignConfig{
		Generator: req.Generator, Gen: req.Gen, Count: req.Count, Seeds: req.Seeds,
	}, false)

	srv := New(Config{})
	w := postJSON(t, srv, "/campaign", req)
	if w.Code != http.StatusOK {
		t.Fatalf("/campaign: code %d, body %s", w.Code, w.Body.String())
	}
	lines := strings.Split(w.Body.String(), "\n")
	if len(lines) < req.Count+1 {
		t.Fatalf("stream has %d lines, want at least %d verdicts + report", len(lines), req.Count+1)
	}
	for i := 0; i < req.Count; i++ {
		var v scenario.Verdict
		if err := json.Unmarshal([]byte(lines[i]), &v); err != nil {
			t.Fatalf("verdict line %d is not JSON: %v\nline: %s", i, err, lines[i])
		}
		if v.ID == "" || v.Err != "" {
			t.Fatalf("verdict line %d malformed: %+v", i, v)
		}
	}
	if got := strings.Join(lines[req.Count:], "\n"); got != want {
		t.Fatalf("report after verdict lines diverged:\n--- served ---\n%s\n--- direct ---\n%s", got, want)
	}
}

func TestCampaignJSONDocument(t *testing.T) {
	req := CampaignRequest{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     8,
		Seeds:     []uint64{5},
		JSON:      true,
	}
	want := directCampaign(t, scenario.CampaignConfig{
		Generator: req.Generator, Gen: req.Gen, Count: req.Count, Seeds: req.Seeds,
	}, true)
	srv := New(Config{})
	if w := postJSON(t, srv, "/campaign", req); w.Body.String() != want {
		t.Fatalf("served JSON document diverged:\n--- served ---\n%s\n--- direct ---\n%s", w.Body.String(), want)
	}
}

func TestCampaignConfigErrorsAre400(t *testing.T) {
	srv := New(Config{})
	if w := postJSON(t, srv, "/campaign", CampaignRequest{Generator: "no-such-sampler"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown generator: code %d, body %s", w.Code, w.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/campaign", strings.NewReader(`{"workers": 9}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "workers") {
		t.Fatalf("server-owned knob in request: code %d, body %s", w.Code, w.Body.String())
	}
}

// TestCampaignAbortedByDrain: once Abort fires (the drain grace
// expired), an open campaign stops at its next verdict boundary with a
// loud trailer instead of a report.
func TestCampaignAbortedByDrain(t *testing.T) {
	srv := New(Config{})
	srv.Abort()
	w := postJSON(t, srv, "/campaign", CampaignRequest{
		Generator: "boundary",
		Gen:       scenario.GenConfig{MaxRing: 8},
		Count:     16,
		Seeds:     []uint64{5},
	})
	body := w.Body.String()
	if !strings.Contains(body, "pefserve: ERROR") || !strings.Contains(body, "interrupted by server drain") {
		t.Fatalf("aborted campaign lacks the loud trailer: %s", body)
	}
	if strings.Contains(body, "campaign:") {
		t.Fatalf("aborted campaign still streamed a report: %s", body)
	}
	if got := srv.tel.Snapshot().Counters["serve.campaigns.interrupted"]; got != 1 {
		t.Fatalf("serve.campaigns.interrupted = %d, want 1", got)
	}
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	srv := New(Config{})
	if w := get(srv, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthy healthz: code %d, body %s", w.Code, w.Body.String())
	}
	srv.StartDrain()
	if w := get(srv, "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("draining healthz: code %d, body %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, srv, "/run", testSpec(43)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/run while draining: code %d, want 503", w.Code)
	}
	if got := srv.tel.Snapshot().Counters["serve.rejected.draining"]; got != 1 {
		t.Fatalf("serve.rejected.draining = %d, want 1", got)
	}
}

func TestMetricsExposesCacheAndServeCounters(t *testing.T) {
	tel := scenario.NewTelemetry()
	srv := New(Config{
		Cache:     cache.New(cache.Config{Telemetry: tel.Registry()}),
		Telemetry: tel,
	})
	postJSON(t, srv, "/run", testSpec(44))
	postJSON(t, srv, "/run", testSpec(44))
	w := get(srv, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: code %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics is not JSON: %v", err)
	}
	for counter, want := range map[string]int64{
		"cache.hits":     1,
		"cache.misses":   1,
		"serve.runs":     2,
		"serve.requests": 2,
	} {
		if got := snap.Counters[counter]; got != want {
			t.Errorf("%s = %d, want %d (counters: %v)", counter, got, want, snap.Counters)
		}
	}
}

// TestInFlightCapacity503: with every in-flight slot taken, new work is
// refused immediately with 503 + Retry-After, never queued.
func TestInFlightCapacity503(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	srv.inflight <- struct{}{} // occupy the only slot
	w := postJSON(t, srv, "/run", testSpec(45))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated /run: code %d, want 503", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if got := srv.tel.Snapshot().Counters["serve.rejected.busy"]; got != 1 {
		t.Fatalf("serve.rejected.busy = %d, want 1", got)
	}
	<-srv.inflight
	if w := postJSON(t, srv, "/run", testSpec(45)); w.Code != http.StatusOK {
		t.Fatalf("freed /run: code %d, body %s", w.Code, w.Body.String())
	}
}
