package lease

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pef/internal/scenario"
)

var fuzzRoutes = []string{"/lease", "/heartbeat", "/ack"}

// FuzzLeaseHandler posts arbitrary bodies to the worker protocol of a
// coordinator holding one live lease. Nothing may panic, every refused
// request must be a 4xx, and a checkpoint the coordinator accepts must
// re-encode to bytes that decode back to it.
func FuzzLeaseHandler(f *testing.F) {
	// The first lease of a fresh test coordinator is deterministic, so
	// the seeds can carry its live block and token.
	g := *newTestCoordinator(f, newFakeClock(), nil).Lease("w").Grant
	ckpt := blockCheckpoint(f, testCampaign(), g.Block)
	for route, body := range []any{
		LeaseRequest{Worker: "w"},
		HeartbeatRequest{Worker: "w", Block: g.Block, Token: g.Token},
		AckRequest{Worker: "w", Block: g.Block, Token: g.Token, Checkpoint: ckpt},
	} {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(route), data)
	}
	f.Add(uint8(2), []byte(fmt.Sprintf(`{"worker":"w","block":%d,"token":%d,"checkpoint":"garbage"}`, g.Block, g.Token)))
	f.Add(uint8(1), []byte(`{"block":-1}`))
	f.Add(uint8(0), []byte(`{`))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		c := newTestCoordinator(t, newFakeClock(), nil)
		c.Lease("w")
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		w := httptest.NewRecorder()
		Handler(c).ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code > 499) {
			t.Fatalf("POST %s: status %d, want 200 or 4xx; body %s", path, w.Code, w.Body)
		}
		if path != "/ack" || w.Code != http.StatusOK {
			return
		}
		var req AckRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted ack body does not parse: %v", err)
		}
		accepted, err := scenario.DecodeCheckpoint(req.Checkpoint)
		if err != nil {
			t.Fatalf("accepted checkpoint does not decode: %v", err)
		}
		data, err := accepted.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		back, err := scenario.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if again, err := back.Encode(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encoded checkpoint decodes to a different checkpoint (err %v)", err)
		}
	})
}
