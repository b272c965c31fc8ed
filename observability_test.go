package ringrpq

// End-to-end observability tests over a real index: the profile span
// tree produced by the engine (traverse + per-level spans with frontier
// and wavelet-visit attrs), the /metrics exposition through the public
// handler, and the readiness probe's reaction to a wedged write-ahead
// log.

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"ringrpq/internal/obs"
	"ringrpq/internal/service"
	"ringrpq/internal/wal"
)

func obsTestDB(t *testing.T) *DB {
	t.Helper()
	b := NewBuilder()
	b.Add("a", "p", "b")
	b.Add("b", "p", "c")
	b.Add("c", "p", "d")
	b.Add("a", "q", "d")
	db, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return db
}

// TestProfileEngineSpans: a profiled closure query must surface the
// engine's traversal telemetry — exactly one traverse span with
// product-graph attrs nesting per-BFS-level spans with frontier sizes
// and wavelet-node visits — and the span clock must be consistent
// (children within parents, siblings summing to no more than the root).
// The three layouts cover the three ways the one traversal kernel
// (core.Engine) is reached: over a single ring, over the shards of a
// ShardedEngine (a closure whose predicates sit on different shards)
// and under the overlay's union engine (an update touching the query's
// predicate).
func TestProfileEngineSpans(t *testing.T) {
	// Six parallel chains a → b → c → d, one per predicate, so that any
	// closure over them reaches {b, c, d} from a in three BFS levels.
	preds := []string{"p", "q", "r", "s", "u", "v"}
	chains := func(cfg BuilderConfig) *DB {
		b := NewBuilderWithConfig(cfg)
		for _, p := range preds {
			b.Add("a", p, "b")
			b.Add("b", p, "c")
			b.Add("c", p, "d")
		}
		db, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return db
	}
	cases := []struct {
		name  string
		build func() (*DB, string)
		want  int
	}{
		{"single-ring", func() (*DB, string) { return obsTestDB(t), "p+" }, 3},
		{"sharded-cross-shard", func() (*DB, string) {
			db := chains(BuilderConfig{Shards: 3})
			set := db.h.cur.Load().set
			p0, _ := db.g.PredID(preds[0], false)
			for _, name := range preds[1:] {
				if p, _ := db.g.PredID(name, false); set.ShardFor(p) != set.ShardFor(p0) {
					return db, "(" + preds[0] + "|" + name + ")+"
				}
			}
			t.Fatalf("all of %v hash to one shard", preds)
			return nil, ""
		}, 3},
		{"overlay-touching-predicate", func() (*DB, string) {
			db := obsTestDB(t)
			if _, err := db.Apply([]Triple{{"d", "p", "e"}}, nil); err != nil {
				t.Fatalf("apply: %v", err)
			}
			if db.UpdateStats().OverlayEdges == 0 {
				t.Fatal("overlay is empty after the update")
			}
			return db, "p+"
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, expr := tc.build()
			checkEngineSpans(t, db, expr, tc.want)
		})
	}
}

// checkEngineSpans profiles (a, expr, ?o) through the HTTP handler and
// checks the span tree's shape.
func checkEngineSpans(t *testing.T, db *DB, expr string, want int) {
	t.Helper()
	svc := NewService(db, ServiceConfig{Workers: 1, ResultCacheEntries: -1})
	defer svc.Close()
	h := svc.Handler(HandlerConfig{})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/query",
		strings.NewReader(`{"subject":"a","expr":"`+expr+`","object":"?o","profile":true}`))
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST /query = %d: %s", rec.Code, rec.Body.String())
	}
	var out service.ResultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Count != want {
		t.Fatalf("a -%s-> ?o returned %d solutions, want %d", expr, out.Count, want)
	}
	if out.Profile == nil || len(out.Profile.Spans) != 1 {
		t.Fatalf("no single-root profile: %+v", out.Profile)
	}
	root := out.Profile.Spans[0]
	if root.Kind != "request" {
		t.Fatalf("root span kind %q", root.Kind)
	}

	var traverse *obs.SpanNode
	traverses := 0
	var find func(n *obs.SpanNode)
	find = func(n *obs.SpanNode) {
		if n.Kind == "traverse" {
			traverse = n
			traverses++
		}
		for _, c := range n.Children {
			find(c)
		}
	}
	find(root)
	if traverses != 1 {
		t.Fatalf("%d traverse spans in profile, want exactly 1: %s", traverses, rec.Body.String())
	}
	if traverse.Attrs["results"] != int64(want) {
		t.Errorf("traverse results attr = %d, want %d", traverse.Attrs["results"], want)
	}
	if traverse.Attrs["wavelet_visits"] <= 0 || traverse.Attrs["product_nodes"] <= 0 {
		t.Errorf("traverse missing engine attrs: %v", traverse.Attrs)
	}

	levels := 0
	for _, c := range traverse.Children {
		if c.Kind != "level" {
			continue
		}
		levels++
		if c.Attrs["frontier"] <= 0 {
			t.Errorf("level span without frontier attr: %v", c.Attrs)
		}
		if c.StartUS < traverse.StartUS-1 ||
			c.StartUS+c.DurationUS > traverse.StartUS+traverse.DurationUS+1 {
			t.Errorf("level span outside traverse window")
		}
	}
	// a reaches {b, c, d, …} one hop per BFS level.
	if levels < 2 {
		t.Errorf("closure traversal produced %d level spans, want >= 2", levels)
	}

	var sum float64
	for _, c := range root.Children {
		sum += c.DurationUS
	}
	if sum > root.DurationUS*1.01+50 {
		t.Errorf("children (%.0fus) exceed root (%.0fus)", sum, root.DurationUS)
	}
}

// TestMetricsEndToEnd scrapes /metrics through the public handler after
// real traffic and spot-checks engine-backed series.
func TestMetricsEndToEnd(t *testing.T) {
	db := obsTestDB(t)
	svc := NewService(db, ServiceConfig{Workers: 2})
	defer svc.Close()
	h := svc.Handler(HandlerConfig{})

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query",
			strings.NewReader(`{"subject":"a","expr":"p+","object":"?o"}`)))
		if rec.Code != 200 {
			t.Fatalf("query %d = %d", i, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"ringrpq_requests 3",
		"ringrpq_completed 1", // first query evaluates, rest hit the cache
		"ringrpq_hits 2",
		"ringrpq_request_duration_seconds_count 1",
		"ringrpq_eval_duration_seconds_count 1",
		"ringrpq_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestReadyzWedgedWAL: readiness must fail once the write-ahead log
// wedges (fsync failures make appends refuse), with the wedge reason
// in the response body — while liveness stays green.
func TestReadyzWedgedWAL(t *testing.T) {
	mem := wal.NewMemFS()
	ff := wal.NewFaultFS(mem)
	db, err := openDurable(WALConfig{Dir: "/obs-wedge", Fsync: "always"}, func() (*DB, error) {
		b := NewBuilder()
		b.Add("a", "p", "b")
		return b.Build()
	}, ff)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.CloseWAL()
	db.SetCompactionThreshold(-1)

	svc := NewService(db, ServiceConfig{Workers: 1})
	defer svc.Close()
	h := svc.Handler(HandlerConfig{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz healthy = %d: %s", rec.Code, rec.Body.String())
	}

	ff.FailSyncs(true)
	if _, err := db.Apply([]Triple{{"a", "p", "c"}}, nil); err == nil {
		t.Fatal("apply with failing fsync unexpectedly succeeded")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("/readyz wedged = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "wedged") {
		t.Errorf("/readyz body lacks wedge reason: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz wedged = %d, want 200", rec.Code)
	}

	ws := db.WALStats()
	if !ws.Wedged || ws.WedgeReason == "" {
		t.Errorf("WALStats not reporting wedge: %+v", ws)
	}
}
