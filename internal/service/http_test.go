package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ringrpq/internal/standing"
)

func newTestServer(t *testing.T, b Backend, cfg Config, hcfg HandlerConfig) *httptest.Server {
	t.Helper()
	s := New(b, cfg)
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(NewHandler(s, hcfg))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPQuery(t *testing.T) {
	srv := newTestServer(t, newFake(2), Config{Workers: 1}, HandlerConfig{})

	resp, body := postJSON(t, srv.URL+"/query", `{"subject":"?x","expr":"a/b*","object":"?y"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ResultJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 || len(out.Solutions) != 2 || out.Error != "" {
		t.Fatalf("bad response: %s", body)
	}
	if out.Solutions[0].Object != "a/b*" {
		t.Fatalf("solution: %+v", out.Solutions[0])
	}

	// Second identical call is a cache hit.
	_, body = postJSON(t, srv.URL+"/query", `{"subject":"?x","expr":"a/b*","object":"?y"}`)
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatalf("want cached: %s", body)
	}

	// Count mode omits solutions.
	_, body = postJSON(t, srv.URL+"/query", `{"expr":"a","count":true}`)
	var cnt ResultJSON
	if err := json.Unmarshal(body, &cnt); err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 2 || cnt.Solutions != nil {
		t.Fatalf("count mode: %s", body)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	srv := newTestServer(t, newFake(1), Config{Workers: 1}, HandlerConfig{MaxBodyBytes: 1024})
	bigExpr := strings.Repeat("a", 2048)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                                    // missing expr
		{`{"expr":"((("}`, http.StatusBadRequest},                        // parse error
		{`{"expr":"a","timeout":"soon"}`, http.StatusBadRequest},         // bad duration
		{`{"queries":[{"expr":"a"},{}]}`, http.StatusBadRequest},         // batch item invalid
		{`{"queries":[]}`, http.StatusBadRequest},                        // empty batch
		{`{"expr":"a","limit":-1}`, http.StatusBadRequest},               // negative limit
		{`{"expr":"a","timeout":"-5s"}`, http.StatusBadRequest},          // negative timeout
		{`{"expr":"a","timeout":"0s"}`, http.StatusBadRequest},           // zero timeout
		{`{"expr":"` + bigExpr + `"}`, http.StatusRequestEntityTooLarge}, // oversized body
	} {
		url := srv.URL + "/query"
		if strings.Contains(tc.body, "queries") {
			url = srv.URL + "/batch"
		}
		resp, body := postJSON(t, url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s → %d (want %d): %s", tc.body, resp.StatusCode, tc.want, body)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	srv := newTestServer(t, newFake(1), Config{Workers: 2}, HandlerConfig{})
	resp, body := postJSON(t, srv.URL+"/batch",
		`{"queries":[{"expr":"a"},{"expr":"b","count":true}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []ResultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Count != 1 || out.Results[1].Solutions != nil {
		t.Fatalf("batch response: %s", body)
	}
}

func TestHTTPTimeout(t *testing.T) {
	f := newFake(1)
	f.shared.delay = 50 * time.Millisecond
	srv := newTestServer(t, f, Config{Workers: 1}, HandlerConfig{})
	resp, body := postJSON(t, srv.URL+"/query", `{"expr":"a","timeout":"1ms"}`)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("timeouts should return partial results with 206: %d %s", resp.StatusCode, body)
	}
	var out ResultJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Truncated {
		t.Fatalf("want truncated: %s", body)
	}
}

// statsFake is a fake backend that reports an "index" block.
type statsFake struct{ *fake }

func (statsFake) BackendStats() (standing.Stats, WALStats, any) {
	return standing.Stats{}, WALStats{}, map[string]int{"nodes": 42}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	srv := newTestServer(t, statsFake{newFake(1)}, Config{Workers: 3}, HandlerConfig{})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Service Stats          `json:"service"`
		Index   map[string]int `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Service.Workers != 3 || out.Index["nodes"] != 42 {
		t.Fatalf("stats: %+v", out)
	}

	// Wrong methods 404 under the method-qualified mux patterns.
	resp, err = http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /query should not be served")
	}
}
