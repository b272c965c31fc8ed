package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/query"
)

// patternFake answers every pattern evaluation with `rows` fixed rows
// and counts invocations on the shared struct.
type patternFake struct {
	stubBackend
	shared *patternFakeShared
}

type patternFakeShared struct {
	evals atomic.Int64
	rows  int
}

func newPatternFake(rows int) *patternFake {
	return &patternFake{shared: &patternFakeShared{rows: rows}}
}

func (f *patternFake) Clone() Backend { return &patternFake{shared: f.shared} }

func (f *patternFake) EvalPattern(_ context.Context, q *query.Query, limit int, timeout time.Duration, emit func([]string) bool) error {
	f.shared.evals.Add(1)
	vars := q.OutVars()
	for i := 0; i < f.shared.rows; i++ {
		if limit > 0 && i >= limit {
			break
		}
		row := make([]string, len(vars))
		for j := range row {
			row[j] = "v"
		}
		if !emit(row) {
			break
		}
	}
	return nil
}

func TestServicePatternRequests(t *testing.T) {
	f := newPatternFake(3)
	s := New(f, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	res := s.Select(ctx, Request{Pattern: "?x p ?y . ?y q+ ?z"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Vars) != 3 || res.N != 3 || len(res.Rows) != 3 {
		t.Fatalf("vars=%v n=%d rows=%d", res.Vars, res.N, len(res.Rows))
	}

	// A syntactic variant of the same pattern canonicalises to the same
	// cache entry and hits the result cache without re-evaluating.
	before := f.shared.evals.Load()
	res2 := s.Select(ctx, Request{Pattern: "  ?x   p ?y .   ?y q+ ?z  "})
	if res2.Err != nil || !res2.Cached {
		t.Fatalf("variant should hit the result cache: cached=%v err=%v", res2.Cached, res2.Err)
	}
	if f.shared.evals.Load() != before {
		t.Fatal("cache hit re-evaluated the pattern")
	}

	// Count mode returns N only.
	resC := s.Count(ctx, Request{Pattern: "?a p ?b"})
	if resC.Err != nil || resC.N != 3 || resC.Rows != nil {
		t.Fatalf("count: %+v", resC)
	}

	// Limits flow through to the backend.
	resL := s.Select(ctx, Request{Pattern: "?a q ?b", Limit: 2})
	if resL.Err != nil || resL.N != 2 {
		t.Fatalf("limit: %+v", resL)
	}

	// Parse errors are per-request failures.
	if res := s.Select(ctx, Request{Pattern: "?x ((bad ?y"}); res.Err == nil {
		t.Fatal("bad pattern accepted")
	}
	// Select without a pattern is rejected.
	if res := s.Select(ctx, Request{Expr: "p"}); res.Err == nil {
		t.Fatal("Select without Pattern accepted")
	}

	st := s.Stats()
	if st.PatternMisses == 0 || st.PatternEntries == 0 {
		t.Fatalf("pattern cache counters not wired: %+v", st)
	}
}

func TestHTTPSelectEndpoint(t *testing.T) {
	s := New(newPatternFake(2), Config{Workers: 1})
	defer s.Close()
	h := NewHandler(s, HandlerConfig{DefaultLimit: 100})

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/select", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	w := post(`{"query": "SELECT ?x ?z WHERE { ?x p ?y . ?y q+ ?z }"}`)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out SelectResultJSON
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Vars) != 2 || out.Count != 2 || len(out.Rows) != 2 {
		t.Fatalf("response: %+v", out)
	}

	for _, body := range []string{
		`{}`,
		`{"query": "?x ((bad ?y"}`,
		`{"query": "?x p ?y", "limit": -1}`,
		`{"query": "?x p ?y", "timeout": "-1s"}`,
		`not json`,
	} {
		if w := post(body); w.Code != 400 {
			t.Fatalf("%s: status %d, want 400", body, w.Code)
		}
	}
}
