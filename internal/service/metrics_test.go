package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ringrpq/internal/obs"
)

// TestMetricsCoverage is the lint-metrics check: every leaf field of
// the Stats snapshot must surface on /metrics — numeric and bool fields
// as a ringrpq_* series, string fields as a label on the enclosing
// block's *_info series. A field added to Stats (or its nested blocks)
// without a matching series fails here, which `make lint-metrics` runs
// in CI.
func TestMetricsCoverage(t *testing.T) {
	svc := newTestService(t, newFake(2), Config{Workers: 2})
	if res := svc.Query(context.Background(), Request{Subject: "a", Expr: "p", Object: "?o"}); res.Err != nil {
		t.Fatalf("query: %v", res.Err)
	}

	rec := httptest.NewRecorder()
	svc.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	var missing []string
	var walk func(rt reflect.Type, prefix string)
	walk = func(rt reflect.Type, prefix string) {
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			name := prefix + snake(f.Name)
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, name+"_")
			case reflect.String:
				info := "ringrpq_" + strings.TrimSuffix(prefix, "_") + "_info"
				if !infoHasLabel(body, info, snake(f.Name)) {
					missing = append(missing, f.Name+" (expected label "+snake(f.Name)+" on "+info+")")
				}
			default:
				if !hasSeries(body, "ringrpq_"+name) {
					missing = append(missing, "ringrpq_"+name)
				}
			}
		}
	}
	walk(reflect.TypeOf(Stats{}), "")
	if len(missing) > 0 {
		t.Fatalf("Stats fields without a /metrics series:\n  %s", strings.Join(missing, "\n  "))
	}

	for _, h := range []string{"ringrpq_request_duration_seconds", "ringrpq_eval_duration_seconds"} {
		if !hasSeries(body, h+"_count") || !strings.Contains(body, h+`_bucket{le="+Inf"}`) {
			t.Errorf("missing histogram %s", h)
		}
	}
}

// TestGCStats: the GC block counts a forced cycle, finds a live heap
// and reports the memory limit, and /metrics types the pace as
// counters and the sizes as gauges.
func TestGCStats(t *testing.T) {
	svc := newTestService(t, newFake(1), Config{Workers: 1})
	before := svc.Stats().GC
	runtime.GC()
	after := svc.Stats().GC
	if after.Cycles <= before.Cycles || after.CPUSeconds < before.CPUSeconds || after.HeapLiveBytes <= 0 || after.MemoryLimitBytes <= 0 {
		t.Fatalf("GC stats around a forced cycle: %+v, then %+v", before, after)
	}
	rec := httptest.NewRecorder()
	svc.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"# TYPE ringrpq_gc_cycles counter", "# TYPE ringrpq_gc_cpu_seconds counter",
		"# TYPE ringrpq_gc_heap_live_bytes gauge", "# TYPE ringrpq_gc_memory_limit_bytes gauge",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// hasSeries reports whether the exposition contains a sample line for
// the exact metric name (not a prefix of a longer name).
func hasSeries(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name) {
			rest := line[len(name):]
			if strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{") {
				return true
			}
		}
	}
	return false
}

// infoHasLabel reports whether the info series carries the label key.
func infoHasLabel(body, name, label string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+"{") && strings.Contains(line, label+"=") {
			return true
		}
	}
	return false
}

// TestMetricsExpositionFormat holds every line of the scrape to the
// Prometheus text format: comments, or `name[{labels}] value`.
func TestMetricsExpositionFormat(t *testing.T) {
	svc := newTestService(t, newFake(1), Config{Workers: 1})
	svc.Query(context.Background(), Request{Subject: "a", Expr: "p", Object: "?o"})

	rec := httptest.NewRecorder()
	svc.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}

	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \+Inf$`)
	for i, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("line %d not valid exposition: %q", i+1, line)
		}
	}
}

// TestLatencyHistogramsInStats verifies the bugfix satellite: after
// evaluations, /stats carries non-zero end-to-end and evaluation-only
// latency summaries.
func TestLatencyHistogramsInStats(t *testing.T) {
	f := newFake(1)
	f.shared.delay = 2 * time.Millisecond
	svc := newTestService(t, f, Config{Workers: 1})
	for i := 0; i < 4; i++ {
		if res := svc.Query(context.Background(), Request{Subject: "a", Expr: "p", Object: "?o", Count: i%2 == 0}); res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
	}
	st := svc.Stats()
	if st.Latency.Count == 0 || st.EvalLatency.Count == 0 {
		t.Fatalf("latency histograms unpopulated: %+v / %+v", st.Latency, st.EvalLatency)
	}
	if st.Latency.P50MS <= 0 || st.Latency.P99MS < st.Latency.P50MS {
		t.Errorf("implausible e2e quantiles: %+v", st.Latency)
	}
	if st.EvalLatency.MaxMS <= 0 {
		t.Errorf("eval max not recorded: %+v", st.EvalLatency)
	}
	if st.Latency.MaxMS < st.EvalLatency.MaxMS/2 {
		t.Errorf("e2e max %v implausibly below eval max %v", st.Latency.MaxMS, st.EvalLatency.MaxMS)
	}
}

// TestSlowQueryLog exercises the threshold-gated slow-query ring
// through the service and its debug endpoint.
func TestSlowQueryLog(t *testing.T) {
	f := newFake(1)
	f.shared.delay = time.Millisecond
	svc := newTestService(t, f, Config{Workers: 1, SlowQueryThreshold: time.Nanosecond, SlowLogCapacity: 4})
	for i := 0; i < 6; i++ {
		svc.Query(context.Background(), Request{Subject: "a", Expr: "p", Object: "?o", Limit: i + 1})
	}
	if got := svc.Stats().SlowQueries; got < 6 {
		t.Fatalf("SlowQueries = %d, want >= 6", got)
	}
	entries := svc.SlowLog().Entries()
	if len(entries) != 4 {
		t.Fatalf("ring retained %d entries, want capacity 4", len(entries))
	}
	for _, e := range entries {
		if e.Kind != "query" || e.Expr != "p" || e.Total <= 0 {
			t.Errorf("bad slow entry: %+v", e)
		}
	}

	h := NewHandler(svc, HandlerConfig{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	var out struct {
		Enabled bool             `json:"enabled"`
		Total   uint64           `json:"total"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("slowlog decode: %v", err)
	}
	if !out.Enabled || out.Total < 6 || len(out.Entries) != 4 {
		t.Fatalf("slowlog payload: enabled=%v total=%d entries=%d", out.Enabled, out.Total, len(out.Entries))
	}
}

// TestReadyzClosed: /readyz flips to 503 once the service closes while
// /healthz stays a liveness-only 200.
func TestReadyzClosed(t *testing.T) {
	svc := New(newFake(1), Config{Workers: 1})
	h := NewHandler(svc, HandlerConfig{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz before close = %d", rec.Code)
	}

	svc.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz after close = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "closed") {
		t.Errorf("/readyz 503 lacks reason: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz after close = %d, want 200 (liveness only)", rec.Code)
	}
}

// TestSnake pins the acronym-aware name mangling of the /metrics
// exporter.
func TestSnake(t *testing.T) {
	cases := map[string]string{
		"Workers":               "workers",
		"QueueWaitNS":           "queue_wait_ns",
		"P50MS":                 "p50_ms",
		"MeanMS":                "mean_ms",
		"WAL":                   "wal",
		"ResultInvalidations":   "result_invalidations",
		"LastCheckpointVersion": "last_checkpoint_version",
	}
	for in, want := range cases {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProfileSpans drives a profiled request through the HTTP handler
// and checks the rendered span tree: a single request root, the
// expected child kinds properly nested, and child durations that sum
// to no more than the root's.
func TestProfileSpans(t *testing.T) {
	f := newFake(2)
	f.shared.delay = time.Millisecond
	svc := newTestService(t, f, Config{Workers: 1})
	h := NewHandler(svc, HandlerConfig{})

	body := strings.NewReader(`{"subject":"a","expr":"p","object":"?o","profile":true}`)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/query", body)
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST /query = %d: %s", rec.Code, rec.Body.String())
	}
	var out ResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Profile == nil {
		t.Fatal("profile:true returned no profile")
	}
	if len(out.Profile.Spans) != 1 || out.Profile.Spans[0].Kind != "request" {
		t.Fatalf("want a single request root span, got %+v", out.Profile.Spans)
	}
	root := out.Profile.Spans[0]

	kinds := map[string]int{}
	var sum float64
	for _, c := range root.Children {
		kinds[c.Kind]++
		sum += c.DurationUS
		if c.StartUS < root.StartUS-1 || c.StartUS+c.DurationUS > root.StartUS+root.DurationUS+1 {
			t.Errorf("child %s [%f, %f] outside root [%f, %f]", c.Kind,
				c.StartUS, c.StartUS+c.DurationUS, root.StartUS, root.StartUS+root.DurationUS)
		}
	}
	for _, want := range []string{"decode", "compile", "result_cache", "queue_wait", "eval", "serialize"} {
		if kinds[want] == 0 {
			t.Errorf("missing %s span under root (have %v)", want, kinds)
		}
	}
	if sum > root.DurationUS*1.01+50 {
		t.Errorf("children durations (%.0fus) exceed root total (%.0fus)", sum, root.DurationUS)
	}
	if sum > out.Profile.TotalUS*1.01+50 {
		t.Errorf("children durations (%.0fus) exceed reported total (%.0fus)", sum, out.Profile.TotalUS)
	}

	// An eval span records the solution count; queue_wait precedes eval.
	var evalStart, waitStart float64 = -1, -1
	for _, c := range root.Children {
		switch c.Kind {
		case "eval":
			evalStart = c.StartUS
			if c.Attrs["results"] != 2 {
				t.Errorf("eval span results = %d, want 2", c.Attrs["results"])
			}
		case "queue_wait":
			waitStart = c.StartUS
		}
	}
	if waitStart > evalStart {
		t.Errorf("queue_wait (%.0f) starts after eval (%.0f)", waitStart, evalStart)
	}

	// A second identical profiled request hits the result cache and
	// still returns a profile showing the hit.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/query",
		strings.NewReader(`{"subject":"a","expr":"p","object":"?o","profile":true}`))
	h.ServeHTTP(rec, req)
	var cached ResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &cached); err != nil {
		t.Fatalf("decode cached: %v", err)
	}
	if !cached.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if cached.Profile == nil || len(cached.Profile.Spans) != 1 {
		t.Fatalf("cached response lost its profile: %+v", cached.Profile)
	}
	var sawHit bool
	for _, c := range cached.Profile.Spans[0].Children {
		if c.Kind == "result_cache" && c.Attrs["hit"] == 1 {
			sawHit = true
		}
	}
	if !sawHit {
		t.Errorf("cached profile lacks result_cache hit span: %+v", cached.Profile.Spans[0].Children)
	}
}

// TestProfileDecodeSpan: the root span of a profiled /query or /select,
// hit or miss, starts when the body is read, and its first child is the
// decode span that covers reading and checking the body.
func TestProfileDecodeSpan(t *testing.T) {
	svc := newTestService(t, &wireFake{names: []string{"o"}, n: 3}, Config{Workers: 1})
	h := NewHandler(svc, HandlerConfig{})
	for _, tc := range []struct{ path, body string }{
		{"/query", `{"subject":"a","expr":"p","profile":true}`},
		{"/select", `{"query":"?x p ?y","profile":true}`},
	} {
		for round := 0; round < 2; round++ {
			rec := serve(h, tc.path, tc.body)
			var out struct {
				Cached  bool         `json:"cached"`
				Profile *obs.Profile `json:"profile"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Profile == nil || out.Cached != (round == 1) {
				t.Fatalf("%s round %d: %v, cached %v: %s", tc.path, round, err, out.Cached, rec.Body)
			}
			root := out.Profile.Spans[0]
			if len(root.Children) == 0 || root.StartUS != 0 {
				t.Fatalf("%s round %d: root %+v", tc.path, round, root)
			}
			dec := root.Children[0]
			if dec.Kind != "decode" || dec.StartUS != 0 || dec.DurationUS <= 0 || dec.DurationUS > root.DurationUS {
				t.Errorf("%s round %d: first child %+v under a root of %.1f µs", tc.path, round, dec, root.DurationUS)
			}
		}
	}
}

// TestProfileBatchItems: profiled /batch items each carry their own
// span tree rooted at a service-created request span.
func TestProfileBatchItems(t *testing.T) {
	svc := newTestService(t, newFake(1), Config{Workers: 2, ResultCacheEntries: -1})
	h := NewHandler(svc, HandlerConfig{})
	body := `{"queries":[
		{"subject":"a","expr":"p","object":"?o","profile":true},
		{"subject":"b","expr":"q","object":"?o"}]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("POST /batch = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results []ResultJSON `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Profile == nil {
		t.Error("profiled batch item lacks profile")
	} else if out.Results[0].Profile.Spans[0].Kind != "request" {
		t.Errorf("batch item profile root = %q", out.Results[0].Profile.Spans[0].Kind)
	}
	if out.Results[1].Profile != nil {
		t.Error("unprofiled batch item unexpectedly has a profile")
	}
}
