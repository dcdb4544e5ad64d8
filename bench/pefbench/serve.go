package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"pef/internal/harness"
	"pef/internal/prng"
	"pef/internal/scenario"
	"pef/internal/serve"
	"pef/internal/serve/cache"
	"pef/internal/telemetry"
)

// spanHeader carries the client's request span ID to the server-side
// handler span, so both halves of a request land in one span tree.
const (
	spanHeader   = "X-Pefbench-Span"
	clientHeader = "X-Pefbench-Client"
)

// handlerSpans times the server's http.Handler: its spans are children of
// the client request spans, so a request's self time is its transport.
type handlerSpans struct {
	h  http.Handler
	tr *tracer
}

func (hs handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	worker, _ := strconv.Atoi(r.Header.Get(clientHeader))
	sp := hs.tr.begin("serve.handler", parent, worker, r.URL.Path)
	defer hs.tr.end(sp)
	hs.h.ServeHTTP(w, r)
}

// client is one closed-loop client's tally.
type client struct {
	id       int
	it       *iteration
	http     *http.Client
	base     string
	lat      []float64
	verdicts int
	failed   int
	bytes    int64
	digest   hash.Hash
	problems []string
}

func (c *client) problem(format string, args ...any) {
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// post sends one request and reads the whole response, inside a request
// span. It returns the status and body; transport errors are fatal to the
// iteration because a closed-loop client cannot go on without a reply.
func (c *client) post(ctx context.Context, path, kind string, body []byte) (int, []byte, error) {
	sp := c.it.tr.begin("serve.request", c.it.root, c.id, kind)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(clientHeader, strconv.Itoa(c.id))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: %w", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.it.tr.end(sp)
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: reading reply: %w", path, err)
	}
	c.lat = append(c.lat, float64(time.Since(t0).Nanoseconds())/1e6)
	c.bytes += int64(len(data))
	c.digest.Write(data)
	return resp.StatusCode, data, nil
}

// campaignWindow is client A's seed window for request r: windows slide
// by one seed per request and the last request repeats the first window.
func campaignWindow(it *iteration, r int) []uint64 {
	sz := it.sz
	if r == sz.CampaignRequests-1 {
		r = 0
	}
	base := (it.seed-1)*uint64(sz.CampaignRequests+sz.Window) + 1
	return harness.Seeds(base+uint64(r), sz.Window)
}

// runCampaigns is client A: sliding /campaign windows with streamed
// verdict lines.
func (c *client) runCampaigns(ctx context.Context) error {
	sz := c.it.sz
	var first []byte
	for r := 0; r < sz.CampaignRequests; r++ {
		window := campaignWindow(c.it, r)
		req := serve.CampaignRequest{Generator: "uniform", Count: sz.Count, Seeds: window, Verdicts: true}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		code, data, err := c.post(ctx, "/campaign", "campaign", body)
		if err != nil {
			return err
		}
		want := sz.Count * len(window)
		if code != http.StatusOK {
			c.failed += want
			c.problem("POST /campaign window %v: HTTP %d: %.200s", window, code, data)
			continue
		}
		lines, report := splitCampaignReply(data)
		c.verdicts += len(lines)
		if len(lines) != want {
			c.failed += max(want-len(lines), 0)
			c.problem("POST /campaign window %v: %d verdict lines, want %d", window, len(lines), want)
		}
		if !bytes.HasSuffix(report, []byte(fmt.Sprintf("\n%d/%d scenarios satisfy the paper's predicates.\n", want, want))) {
			c.failed++
			c.problem("POST /campaign window %v: report does not show %d/%d satisfied", window, want, want)
		}
		// The fold check decodes every verdict line, so it runs on the cold
		// first request and the repeated last one, not on every request.
		if r == 0 || r == sz.CampaignRequests-1 {
			if err := checkFold(lines, report, req); err != nil {
				c.problem("POST /campaign window %v: %v", window, err)
				c.failed++
			}
		}
		if r == 0 {
			first = data
		}
		if r == sz.CampaignRequests-1 && r > 0 && !bytes.Equal(data, first) {
			c.failed++
			c.problem("POST /campaign: the repeated first window returned different bytes")
		}
	}
	return nil
}

// splitCampaignReply splits a /campaign reply into its verdict lines and
// the trailing report.
func splitCampaignReply(data []byte) (lines [][]byte, report []byte) {
	for len(data) > 0 && data[0] == '{' {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		lines = append(lines, data[:i])
		data = data[i+1:]
	}
	return lines, data
}

// checkFold folds the streamed verdict lines with scenario.NewAggregate
// and requires the result to reproduce the served report byte for byte.
func checkFold(lines [][]byte, report []byte, req serve.CampaignRequest) error {
	agg, err := scenario.NewAggregate(scenario.CampaignConfig{Generator: req.Generator, Count: req.Count, Seeds: req.Seeds})
	if err != nil {
		return err
	}
	for _, line := range lines {
		var v scenario.Verdict
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("decoding verdict line: %w", err)
		}
		agg.Add(v)
	}
	var folded bytes.Buffer
	if err := agg.WriteReport(&folded); err != nil {
		return err
	}
	if !bytes.Equal(folded.Bytes(), report) {
		return fmt.Errorf("folded verdict lines do not reproduce the served report")
	}
	return nil
}

// runSpecs is client B: single-spec /run requests, every second one a
// repeat of a spec sent before.
func (c *client) runSpecs(ctx context.Context, bodies [][]byte, order []int) error {
	for _, k := range order {
		code, data, err := c.post(ctx, "/run", "run", bodies[k])
		if err != nil {
			return err
		}
		var v scenario.Verdict
		if code != http.StatusOK {
			c.failed++
			c.problem("POST /run spec %d: HTTP %d: %.200s", k, code, data)
			continue
		}
		if err := json.Unmarshal(data, &v); err != nil {
			c.failed++
			c.problem("POST /run spec %d: decoding verdict: %v", k, err)
			continue
		}
		c.verdicts++
		if !v.OK || v.Err != "" {
			c.failed++
			c.problem("POST /run %s: outcome=%s err=%q violation=%q", v.ID, v.Outcome, v.Err, v.Violation)
		}
	}
	return nil
}

// runOrder lists client B's requests as spec indices: even requests send
// the next new spec, odd ones repeat an earlier spec picked by seed.
func runOrder(seed uint64, requests int) []int {
	order := make([]int, requests)
	for k := range order {
		if k%2 == 0 {
			order[k] = k / 2
			continue
		}
		order[k] = int(prng.Hash3(seed, 0xB, uint64(k)) % uint64(k/2+1))
	}
	return order
}

func runServe(ctx context.Context, it *iteration) error {
	sz := it.sz
	var tel *scenario.Telemetry
	var creg *telemetry.Registry
	if it.tr != nil {
		tel = scenario.NewTelemetry()
		creg = tel.Registry()
	}
	srv := serve.New(serve.Config{
		Cache:     cache.New(cache.Config{Telemetry: creg}),
		Workers:   sz.Workers,
		Telemetry: tel,
	})
	var h http.Handler = srv
	if it.tr != nil {
		h = handlerSpans{h: srv, tr: it.tr}
	}
	hs := httptest.NewServer(h)
	defer hs.Close()

	distinct := (sz.RunRequests + 1) / 2
	specs, err := scenario.Generate("registered", scenario.GenConfig{}, it.seed, distinct)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		if bodies[i], err = json.Marshal(s); err != nil {
			return err
		}
	}
	order := runOrder(it.seed, sz.RunRequests)
	a := &client{id: 0, it: it, http: hs.Client(), base: hs.URL, digest: newDigest()}
	b := &client{id: 1, it: it, http: hs.Client(), base: hs.URL, digest: newDigest()}
	if !it.start() {
		return nil
	}
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = a.runCampaigns(ctx)
	}()
	go func() {
		defer wg.Done()
		errB = b.runSpecs(ctx, bodies, order)
	}()
	wg.Wait()
	if errA != nil {
		return errA
	}
	if errB != nil {
		return errB
	}

	for _, c := range []*client{a, b} {
		it.res.Ops += c.verdicts
		it.res.Failed += c.failed
		for _, p := range c.problems {
			it.problem("%s", p)
		}
		it.digest.Write(c.digest.Sum(nil))
	}
	it.res.Latencies = append(append(it.res.Latencies, a.lat...), b.lat...)
	it.res.Samples = map[string][]float64{"campaign_ms": a.lat, "run_ms": b.lat}
	if it.tr == nil {
		return nil
	}

	l := it.layers()
	sum, err := summarize(it.tr.snapshot(), "iteration")
	if err != nil {
		return err
	}
	snap := tel.Snapshot()
	engineLayers(l, snap, -1)
	l["serve.handler_ms.p50"] = median(sum.durs["serve.handler"])
	l["serve.transport_ms.p50"] = median(sum.selfs["serve.request"])
	l["serve.verdict_bytes"] = ratio(float64(a.bytes+b.bytes), float64(a.verdicts+b.verdicts))
	hits, misses := float64(snap.Counters["cache.hits"]), float64(snap.Counters["cache.misses"])
	l["serve.cache.hit_ratio"] = ratio(hits, hits+misses)
	l["serve.cache.coalesced"] = float64(snap.Counters["cache.coalesced"])
	l["serve.cache.evictions"] = float64(snap.Counters["cache.evictions"])
	l["serve.cache.bytes"] = float64(snap.Gauges["cache.bytes"].Value)
	return nil
}
