package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pef/internal/scenario"
	"pef/internal/serve/cache"
)

// FuzzServeHandler posts arbitrary bodies to /run and /campaign of a
// cached server. Nothing may panic and every refused request must be a
// 4xx. Bodies that parse to more work than a fuzz input should cost
// (large rings, horizons or campaigns) are skipped.
func FuzzServeHandler(f *testing.F) {
	spec, err := json.Marshal(testSpec(40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, spec)
	f.Add(false, []byte(`{"ring": 8, "typo": 1}`))
	f.Add(false, bytes.Replace(spec, []byte(`"version":1`), []byte(`"version":99`), 1))
	f.Add(true, []byte(`{"generator":"boundary","count":4,"seeds":[1,2]}`))
	f.Add(true, []byte(`{"generator":"uniform","count":3,"json":true,"verdicts":true}`))
	f.Add(true, []byte(`{"generator":"no-such-generator"}`))
	f.Add(true, []byte(`{"workers": 9}`))

	srv := New(Config{Cache: cache.New(cache.Config{}), Workers: 1})
	f.Fuzz(func(t *testing.T, campaign bool, body []byte) {
		path := "/run"
		if campaign {
			path = "/campaign"
			var req CampaignRequest
			if json.Unmarshal(body, &req) == nil &&
				(req.Count > 8 || len(req.Seeds) > 2 || req.Gen.MaxRing > 16 || req.Gen.MaxRobots > 6) {
				t.Skip("campaign too large for a fuzz input")
			}
		} else {
			var s scenario.Spec
			if json.Unmarshal(body, &s) == nil && (s.Ring > 32 || s.Robots > 6 || s.Horizon > 500) {
				t.Skip("spec too large for a fuzz input")
			}
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK && (w.Code < 400 || w.Code > 499) {
			t.Fatalf("POST %s: status %d, want 200 or 4xx; body %s", path, w.Code, w.Body)
		}
	})
}
