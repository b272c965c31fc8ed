package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
)

// nastyNames exercise every escaping rule of encoding/json: quotes and
// backslashes, the HTML set, the JavaScript line separators, control
// bytes with and without a short escape, and invalid UTF-8.
var nastyNames = []string{
	`plain`, `say "hi"`, `back\slash`, `<a href="x">&amp;</a>`,
	"line\u2028sep\u2029", "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1b", "bad\xffutf\xc3", "żółć→日本", "",
}

// wireFake answers 2RPQs and patterns with n results built from names
// and tagged with the data version they were evaluated at. A subject of
// "slow" makes an evaluation report a timeout after its results.
type wireFake struct {
	names   []string
	n       int
	version atomic.Uint64
	evals   atomic.Int64
}

func (f *wireFake) Clone() Backend      { return f }
func (f *wireFake) DataVersion() uint64 { return f.version.Load() }

func (f *wireFake) ApplyUpdates(context.Context, []UpdateTriple, []UpdateTriple) (UpdateResult, error) {
	return UpdateResult{Version: f.version.Add(1)}, nil
}

func (f *wireFake) name(i int) string { return f.names[i%len(f.names)] }

func (f *wireFake) Eval(_ context.Context, subject string, _ pathexpr.Node, _ string, limit int, _ time.Duration, emit func(Solution) bool) error {
	f.evals.Add(1)
	v := strconv.FormatUint(f.version.Load(), 10)
	for i := 0; i < f.n && (limit <= 0 || i < limit); i++ {
		if !emit(Solution{Subject: v, Object: f.name(i)}) {
			break
		}
	}
	if subject == "slow" {
		return core.ErrTimeout
	}
	return nil
}

func (f *wireFake) EvalPattern(_ context.Context, q *query.Query, limit int, _ time.Duration, emit func([]string) bool) error {
	f.evals.Add(1)
	for i := 0; i < f.n && (limit <= 0 || i < limit); i++ {
		row := make([]string, len(q.OutVars()))
		for j := range row {
			row[j] = f.name(i + j)
		}
		if !emit(row) {
			break
		}
	}
	if strings.Contains(q.String(), "slow") {
		return core.ErrTimeout
	}
	return nil
}

func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// encoderBody is what the handler wrote before bodies were spliced:
// json.Encoder over the whole response struct.
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asResultJSON converts res the way the handler did before bodies were
// spliced. cached, elapsed_ms and profile differ from one response to
// the next, so they are taken from the response under test.
func asResultJSON(req Request, res Result, seen ResultJSON) ResultJSON {
	out := ResultJSON{
		Count: res.N, Cached: seen.Cached, ElapsedMS: seen.ElapsedMS, Profile: seen.Profile,
		LimitReached: req.Limit > 0 && res.N >= req.Limit,
	}
	if len(res.Solutions) > 0 {
		out.Solutions = make([]SolutionJSON, len(res.Solutions))
		for i, s := range res.Solutions {
			out.Solutions[i] = SolutionJSON{Subject: s.Subject, Object: s.Object}
		}
	}
	switch {
	case errors.Is(res.Err, core.ErrTimeout):
		out.Truncated = true
	case res.Err != nil:
		out.Error = res.Err.Error()
	}
	return out
}

// TestBodiesMatchEncoder is the differential test of the spliced
// bodies: for names that need every kind of escaping, the body of a
// cache miss and of the hit that follows equal json.Encoder's output
// for the response struct, byte for byte.
func TestBodiesMatchEncoder(t *testing.T) {
	limit := func(n int) *int { return &n }
	queries := []struct {
		name   string
		n      int
		q      QueryJSON
		status int
	}{
		{"solutions", 7, QueryJSON{Subject: "s", Expr: "a/b*"}, 200},
		{"count only", 7, QueryJSON{Subject: "s", Expr: "a", Count: true}, 200},
		{"empty", 0, QueryJSON{Subject: "s", Expr: "a"}, 200},
		{"limit reached", 7, QueryJSON{Subject: "s", Expr: "a", Limit: limit(3)}, 200},
		{"truncated", 7, QueryJSON{Subject: "slow", Expr: "a"}, 206},
		{"profiled", 7, QueryJSON{Subject: "s", Expr: "a|b", Profile: true}, 200},
	}
	for _, tc := range queries {
		t.Run("query/"+tc.name, func(t *testing.T) {
			s := newTestService(t, &wireFake{names: nastyNames, n: tc.n}, Config{Workers: 1})
			h := NewHandler(s, HandlerConfig{})
			reqBody, _ := json.Marshal(tc.q)
			req, err := (&handler{s: s}).toRequest(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			for round, wantCached := range []bool{false, tc.status == 200} {
				rec := serve(h, "/query", string(reqBody))
				if rec.Code != tc.status {
					t.Fatalf("round %d: status %d, want %d: %s", round, rec.Code, tc.status, rec.Body)
				}
				var seen ResultJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &seen); err != nil {
					t.Fatalf("round %d: %v in %s", round, err, rec.Body)
				}
				if seen.Cached != wantCached || (seen.Profile != nil) != tc.q.Profile {
					t.Fatalf("round %d: cached=%v profile=%v", round, seen.Cached, seen.Profile != nil)
				}
				want := encoderBody(t, asResultJSON(req, s.do(context.Background(), req, nil), seen))
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("round %d:\n got %s\nwant %s", round, rec.Body, want)
				}
			}
		})
	}

	t.Run("batch", func(t *testing.T) {
		s := newTestService(t, &wireFake{names: nastyNames, n: 4}, Config{Workers: 2})
		h := NewHandler(s, HandlerConfig{})
		var in BatchJSON
		for _, tc := range queries {
			in.Queries = append(in.Queries, tc.q)
		}
		in.Queries = append(in.Queries, QueryJSON{Expr: "a", Timeout: "1ns"}) // expires queued: an item with no solutions
		reqBody, _ := json.Marshal(in)
		for round := 0; round < 2; round++ {
			rec := serve(h, "/batch", string(reqBody))
			if rec.Code != 200 {
				t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body)
			}
			var seen struct {
				Results   []ResultJSON `json:"results"`
				ElapsedMS float64      `json:"elapsed_ms"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &seen); err != nil || len(seen.Results) != len(in.Queries) {
				t.Fatalf("round %d: %v in %s", round, err, rec.Body)
			}
			items := make([]ResultJSON, len(in.Queries))
			for i, q := range in.Queries {
				req, _ := (&handler{s: s}).toRequest(q)
				items[i] = asResultJSON(req, s.do(context.Background(), req, nil), seen.Results[i])
			}
			want := encoderBody(t, map[string]any{"results": items, "elapsed_ms": seen.ElapsedMS})
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("round %d:\n got %s\nwant %s", round, rec.Body, want)
			}
		}
	})

	selects := []struct {
		name   string
		n      int
		q      SelectJSON
		status int
	}{
		{"rows", 5, SelectJSON{Query: "?x p ?y . ?y q+ ?z"}, 200},
		{"count only", 5, SelectJSON{Query: "?x p ?y", Count: true}, 200},
		{"empty", 0, SelectJSON{Query: "?x p ?y"}, 200},
		{"limit reached", 5, SelectJSON{Query: "?x p ?y", Limit: limit(2)}, 200},
		{"truncated", 5, SelectJSON{Query: "?x slow ?y"}, 206},
		{"profiled", 5, SelectJSON{Query: "?x p ?y", Profile: true}, 200},
	}
	for _, tc := range selects {
		t.Run("select/"+tc.name, func(t *testing.T) {
			s := newTestService(t, &wireFake{names: nastyNames, n: tc.n}, Config{Workers: 1})
			h := NewHandler(s, HandlerConfig{})
			reqBody, _ := json.Marshal(tc.q)
			req, err := (&handler{s: s}).toPatternRequest(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			for round, wantCached := range []bool{false, tc.status == 200} {
				rec := serve(h, "/select", string(reqBody))
				if rec.Code != tc.status {
					t.Fatalf("round %d: status %d, want %d: %s", round, rec.Code, tc.status, rec.Body)
				}
				var seen SelectResultJSON
				if err := json.Unmarshal(rec.Body.Bytes(), &seen); err != nil {
					t.Fatalf("round %d: %v in %s", round, err, rec.Body)
				}
				if seen.Cached != wantCached || (seen.Profile != nil) != tc.q.Profile {
					t.Fatalf("round %d: cached=%v profile=%v", round, seen.Cached, seen.Profile != nil)
				}
				res := s.Select(context.Background(), req)
				want := encoderBody(t, SelectResultJSON{
					Vars: res.Vars, Rows: res.Rows, Count: res.N,
					Cached: seen.Cached, ElapsedMS: seen.ElapsedMS, Profile: seen.Profile,
					Truncated:    errors.Is(res.Err, core.ErrTimeout),
					LimitReached: req.Limit > 0 && res.N >= req.Limit,
				})
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("round %d:\n got %s\nwant %s", round, rec.Body, want)
				}
			}
		})
	}

	// A select that expired while queued has no variable list at all.
	b := bodyPool.Get().(*body)
	defer b.release()
	b.appendResult(Request{Pattern: "?x p ?y"}, &Result{Err: core.ErrTimeout}, 1500*time.Microsecond)
	b.WriteByte('\n')
	if want := encoderBody(t, SelectResultJSON{Truncated: true, ElapsedMS: 1.5}); !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("queued-out select:\n got %s\nwant %s", b.Bytes(), want)
	}
}

// TestJSONStringLenBoundsEncoder: the size charged for a string is
// never below what the encoder emits for it, and exact for names
// without control characters.
func TestJSONStringLenBoundsEncoder(t *testing.T) {
	for _, s := range append([]string{"Q42", "http://example.org/a?b=c&d", strings.Repeat("é", 9)}, nastyNames...) {
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		controls := strings.IndexFunc(s, func(r rune) bool { return r < 0x20 }) >= 0
		if got := jsonStringLen(s); got < len(enc) || (!controls && got != len(enc)) {
			t.Errorf("jsonStringLen(%q) = %d, encoder wrote %d bytes", s, got, len(enc))
		}
	}
}

// TestResultCacheBytesCoverEncodedBodies fills the cache past its byte
// bound through the handler, so every entry carries its encoded body,
// and checks that what the cache retains is within what it charged and
// what it charged within the bound.
func TestResultCacheBytesCoverEncodedBodies(t *testing.T) {
	const maxBytes = 64 << 10
	s := newTestService(t, &wireFake{names: nastyNames, n: 40}, Config{Workers: 1, ResultCacheBytes: maxBytes})
	h := NewHandler(s, HandlerConfig{})
	for i := 0; i < 60; i++ {
		path, body := "/query", fmt.Sprintf(`{"subject":"s%d","expr":"a"}`, i)
		if i%2 == 1 {
			path, body = "/select", fmt.Sprintf(`{"query":"?x p%d ?y"}`, i)
		}
		if rec := serve(h, path, body); rec.Code != 200 {
			t.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body)
		}
	}
	var retained int64
	for el := s.results.order.Front(); el != nil; el = el.Next() {
		res := el.Value.(*lruEntry).value.(Result)
		if res.wire.frag == nil {
			t.Fatalf("entry %q was served but holds no encoded body", el.Value.(*lruEntry).key)
		}
		retained += int64(len(res.wire.frag))
		for _, sol := range res.Solutions {
			retained += int64(len(sol.Subject) + len(sol.Object))
		}
		for _, row := range res.Rows {
			for _, v := range row {
				retained += int64(len(v))
			}
		}
	}
	st := s.Stats()
	if st.ResultEvictions == 0 {
		t.Fatal("the workload did not fill the cache past its bound")
	}
	if retained > st.ResultBytes || st.ResultBytes > maxBytes {
		t.Fatalf("retained %d B, charged %d B, bound %d B", retained, st.ResultBytes, maxBytes)
	}
}

// TestInvalidationDropsOlderVersions: the first request after an update
// drops every entry of the older version in one step, counted apart
// from evictions, and a result that finishes behind the version the
// cache has moved to is not stored.
func TestInvalidationDropsOlderVersions(t *testing.T) {
	f := &wireFake{names: []string{"o"}, n: 1}
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		s.Query(ctx, Request{Subject: fmt.Sprint("s", i), Expr: "a"})
	}
	if st := s.Stats(); st.ResultEntries != 5 || st.ResultInvalidations != 0 {
		t.Fatalf("before the update: %d entries, %d invalidations", st.ResultEntries, st.ResultInvalidations)
	}
	if _, err := s.Update(ctx, []UpdateTriple{{S: "a", P: "b", O: "c"}}, nil); err != nil {
		t.Fatal(err)
	}
	if res := s.Query(ctx, Request{Subject: "s0", Expr: "a"}); res.Cached || res.Solutions[0].Subject != "1" {
		t.Fatalf("after the update: %+v", res)
	}
	st := s.Stats()
	if st.ResultEntries != 1 || st.ResultInvalidations != 5 || st.ResultEvictions != 0 {
		t.Fatalf("after the update: %d entries, %d invalidations, %d evictions", st.ResultEntries, st.ResultInvalidations, st.ResultEvictions)
	}

	// A job admitted at version 1 that completes after the cache has
	// seen version 2.
	late := &job{key: "late", version: 1}
	f.version.Store(2)
	s.Query(ctx, Request{Subject: "s1", Expr: "a"})
	s.store(late, &Result{N: 1})
	if _, ok := s.cached("late", 2); ok {
		t.Fatal("a result of version 1 was stored after the cache moved to version 2")
	}
}

// TestHitsUnderUpdates hammers one key from many goroutines, through
// the handler and in process, while updates bump the data version: no
// answer is older than the version its request was admitted at, and
// however many requests share a cache entry its body is encoded once.
func TestHitsUnderUpdates(t *testing.T) {
	f := &wireFake{names: nastyNames, n: 50}
	s := newTestService(t, f, Config{Workers: 4})
	h := NewHandler(s, HandlerConfig{})
	req := Request{Subject: "s", Expr: "a", Object: "?o"}

	var (
		mu    sync.Mutex
		first = map[*wireBody]*byte{} // entry → its fragment as first seen
		wg    sync.WaitGroup
		stop  atomic.Bool
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				admitted := f.version.Load()
				var got string
				if (g+i)%2 == 0 {
					rec := serve(h, "/query", `{"subject":"s","expr":"a"}`)
					var out ResultJSON
					if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Solutions) != f.n {
						t.Errorf("handler: %v, %d solutions", err, len(out.Solutions))
						return
					}
					got = out.Solutions[0].Subject
				} else {
					res := s.do(context.Background(), req, nil)
					if res.Err != nil || len(res.Solutions) != f.n {
						t.Errorf("in process: %v, %d solutions", res.Err, len(res.Solutions))
						return
					}
					got = res.Solutions[0].Subject
					if frag := res.fragment(false); res.wire != nil {
						mu.Lock()
						if p, ok := first[res.wire]; !ok {
							first[res.wire] = &frag[0]
						} else if p != &frag[0] {
							t.Error("one cache entry was encoded twice")
						}
						mu.Unlock()
					}
				}
				if v, _ := strconv.ParseUint(got, 10, 64); v < admitted {
					t.Errorf("admitted at version %d, answered from version %d", admitted, v)
				}
			}
		}(g)
	}
	// Each version is served from the cache at least once before the
	// next update replaces it.
	for v := 0; v < 100; v++ {
		for hits := s.hits.Load(); s.hits.Load() == hits && !t.Failed(); {
			runtime.Gosched()
		}
		if _, err := s.Update(context.Background(), nil, nil); err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// cacheHitFixture returns a handler whose cache holds one result of n
// solutions, and the request that hits it.
func cacheHitFixture(tb testing.TB, n int) (http.Handler, string) {
	s := New(&wireFake{names: []string{"Q1234567", "Q7654321"}, n: n}, Config{Workers: 1})
	tb.Cleanup(func() { s.Close() })
	h := NewHandler(s, HandlerConfig{})
	const body = `{"subject":"Q1","expr":"P1/P2*"}`
	for i := 0; i < 2; i++ {
		if rec := serve(h, "/query", body); rec.Code != 200 || (i == 1 && !strings.Contains(rec.Body.String(), `"cached":true`)) {
			tb.Fatalf("warm-up %d: %d %.80s", i, rec.Code, rec.Body)
		}
	}
	return h, body
}

// BenchmarkHandlerCacheHit is the request the rpq_cached workload is
// made of: a 1000-solution result (a 37 kB body) replayed from the
// result cache through the handler.
func BenchmarkHandlerCacheHit(b *testing.B) {
	h, body := cacheHitFixture(b, 1000)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	for b.Loop() {
		rec.Body.Reset()
		req, _ := http.NewRequest("POST", "/query", strings.NewReader(body))
		h.ServeHTTP(rec, req)
	}
	b.SetBytes(int64(rec.Body.Len()))
}

// TestCacheHitAllocatesNothingPerSolution: a hit allocates for the
// request (decoder, cache key, tail), not for the result — under 4 KiB
// where the body is 37 kB.
func TestCacheHitAllocatesNothingPerSolution(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	h, body := cacheHitFixture(t, 1000)
	rec := httptest.NewRecorder()
	hit := func() {
		rec.Body.Reset()
		req, _ := http.NewRequest("POST", "/query", strings.NewReader(body))
		h.ServeHTTP(rec, req)
	}
	hit()
	if rec.Body.Len() < 30<<10 {
		t.Fatalf("body of %d B, want the 37 kB of a 1000-solution result", rec.Body.Len())
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Fatalf("a cache hit allocates %d B per request, want under 4 KiB", per)
	}
}
