package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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
// bytes with and without a short escape, and invalid UTF-8, beside
// multi-byte UTF-8 that is copied through (the last name holds U+1D11E
// and U+1F600, four bytes each).
var nastyNames = []string{
	`plain`, `say "hi"`, `back\slash`, `<a href="x">&amp;</a>`,
	"line\u2028sep\u2029", "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1b", "bad\xffutf\xc3", "żółć→日本", "",
	"clef \xf0\x9d\x84\x9e grin \xf0\x9f\x98\x80",
}

// mixedNames interleave benchmark-like names with nastyNames, so that
// one fragment holds strings copied whole and strings escaped piece by
// piece.
var mixedNames = []string{
	"Q1234567", nastyNames[1], "http://example.org/resource/Q7654321", nastyNames[3], "P12",
	nastyNames[4], nastyNames[5], "Q1", nastyNames[6], nastyNames[7], nastyNames[8], nastyNames[9], "Q2",
}

// Names the escaping rules treat apart, kept out of nastyNames so that
// the fuzz seeds add them: an encoded surrogate (three bytes of invalid
// UTF-8, so three escaped U+FFFD), a four-byte emoji, and U+FFFD itself,
// valid UTF-8 that is copied through.
const (
	surrogateName   = "\xed\xa0\x80"
	emojiName       = "\xf0\x9f\x98\x80"
	replacementName = "\xef\xbf\xbd"
)

// wireFake answers 2RPQs and patterns with n results built from names
// and tagged with the data version they were evaluated at. A subject of
// "slow" makes an evaluation report a timeout after its results.
type wireFake struct {
	stubBackend
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
	// names default to nastyNames.
	queries := []struct {
		name   string
		n      int
		q      QueryJSON
		status int
		names  []string
	}{
		{name: "solutions", n: 7, q: QueryJSON{Subject: "s", Expr: "a/b*"}, status: 200},
		{name: "count only", n: 7, q: QueryJSON{Subject: "s", Expr: "a", Count: true}, status: 200},
		{name: "empty", n: 0, q: QueryJSON{Subject: "s", Expr: "a"}, status: 200},
		{name: "limit reached", n: 7, q: QueryJSON{Subject: "s", Expr: "a", Limit: limit(3)}, status: 200},
		{name: "truncated", n: 7, q: QueryJSON{Subject: "slow", Expr: "a"}, status: 206},
		{name: "profiled", n: 7, q: QueryJSON{Subject: "s", Expr: "a|b", Profile: true}, status: 200},
		{name: "1000 mixed", n: 1000, q: QueryJSON{Subject: "s", Expr: "a", Limit: limit(1000)}, status: 200, names: mixedNames},
		{name: "nothing to escape", n: 7, q: QueryJSON{Subject: "s", Expr: "a"}, status: 200, names: []string{"Q1", "http://example.org/Q2", "żółć"}},
	}
	fake := func(names []string, n int) *wireFake {
		if names == nil {
			names = nastyNames
		}
		return &wireFake{names: names, n: n}
	}
	for _, tc := range queries {
		t.Run("query/"+tc.name, func(t *testing.T) {
			s := newTestService(t, fake(tc.names, tc.n), Config{Workers: 1})
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
				want := encoderBody(t, asResultJSON(req, s.do(context.Background(), req), seen))
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
				items[i] = asResultJSON(req, s.do(context.Background(), req), seen.Results[i])
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
		names  []string
	}{
		{name: "rows", n: 5, q: SelectJSON{Query: "?x p ?y . ?y q+ ?z"}, status: 200},
		{name: "count only", n: 5, q: SelectJSON{Query: "?x p ?y", Count: true}, status: 200},
		{name: "empty", n: 0, q: SelectJSON{Query: "?x p ?y"}, status: 200},
		{name: "limit reached", n: 5, q: SelectJSON{Query: "?x p ?y", Limit: limit(2)}, status: 200},
		{name: "truncated", n: 5, q: SelectJSON{Query: "?x slow ?y"}, status: 206},
		{name: "profiled", n: 5, q: SelectJSON{Query: "?x p ?y", Profile: true}, status: 200},
		{name: "zero columns", n: 5, q: SelectJSON{Query: "a p b"}, status: 200},
		{name: "1000 mixed", n: 1000, q: SelectJSON{Query: "?x p ?y", Limit: limit(1000)}, status: 200, names: mixedNames},
	}
	for _, tc := range selects {
		t.Run("select/"+tc.name, func(t *testing.T) {
			s := newTestService(t, fake(tc.names, tc.n), Config{Workers: 1})
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

// TestAppendJSONStringMatchesEncoder: appendJSONString writes every
// name as encoding/json does, control characters included.
func TestAppendJSONStringMatchesEncoder(t *testing.T) {
	names := []string{"Q42", "http://example.org/a?b=c&d", strings.Repeat("é", 9), surrogateName, emojiName, replacementName}
	for _, s := range append(names, nastyNames...) {
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, enc) {
			t.Errorf("appendJSONString(%q) = %s, encoder wrote %s", s, got, enc)
		}
	}
}

// reflectFragment is the fragment encoder the appender replaced,
// json.Marshal over the two shapes, kept as FuzzFragment's oracle.
func reflectFragment(r *Result, pattern bool) []byte {
	var v any
	switch {
	case pattern:
		v = struct {
			Vars []string   `json:"vars"`
			Rows [][]string `json:"rows,omitempty"`
		}{r.Vars, r.Rows}
	case len(r.Solutions) > 0:
		sols := make([]SolutionJSON, len(r.Solutions))
		for i, s := range r.Solutions {
			sols[i] = SolutionJSON(s)
		}
		v = struct {
			Solutions []SolutionJSON `json:"solutions"`
		}{sols}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b[1 : len(b)-1]
}

// FuzzFragment: for any subject, object and row values, both fragment
// shapes equal the reflective encoding, appended to nothing or behind
// the bytes a body already holds, and a stored result keeps exactly
// that many bytes.
func FuzzFragment(f *testing.F) {
	seeds := append([]string{surrogateName, emojiName, replacementName}, nastyNames...)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)], seeds[(i+2)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, subject, object, value string) {
		results := []*Result{
			{
				Solutions: []Solution{{Subject: subject, Object: object}, {Subject: value, Object: value}},
				Vars:      []string{subject, value},
				Rows:      [][]string{{subject, object}, {value}, {}, nil},
			},
			{Solutions: []Solution{{Subject: object, Object: subject}}, Rows: [][]string{{value}}},
			{Vars: []string{}},
		}
		s := &Service{results: newLRUCache(8, 1<<20)}
		var a answer
		for i, res := range results {
			for _, pattern := range []bool{false, true} {
				want := reflectFragment(res, pattern)
				if got := appendFragment(nil, res, pattern); !bytes.Equal(got, want) {
					t.Fatalf("result %d, pattern %v:\n got %s\nwant %s", i, pattern, got, want)
				}
				if got := appendFragment([]byte("{"), res, pattern); !bytes.Equal(got[1:], want) {
					t.Fatalf("result %d, pattern %v, behind a brace:\n got %s\nwant %s", i, pattern, got[1:], want)
				}
				stored, j := *res, &job{key: "k"}
				if pattern {
					j.req.Pattern = "?x p ?y"
				}
				s.store(j, &stored, &a)
				if !bytes.Equal(stored.frag, want) || cap(stored.frag) != len(stored.frag) {
					t.Fatalf("result %d, pattern %v: stored %q in a buffer of %d, want %q", i, pattern, stored.frag, cap(stored.frag), want)
				}
			}
		}
	})
}

// TestResultCacheBytesCoverEncodedBodies fills the cache past its byte
// bound through the handler, so every entry carries its encoded body,
// and checks that each entry keeps its body at exactly its length,
// that what the cache retains is within what it charged and what it
// charged within the bound.
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
		if res.frag == nil {
			t.Fatalf("entry %q was served but holds no encoded body", el.Value.(*lruEntry).key)
		}
		if cap(res.frag) != len(res.frag) {
			t.Fatalf("entry %q: a %d B body in a buffer of %d", el.Value.(*lruEntry).key, len(res.frag), cap(res.frag))
		}
		retained += int64(len(res.frag))
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
	s.store(late, &Result{N: 1}, &answer{})
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
		first = map[*Solution]*byte{} // entry, by its solutions → its fragment as first seen
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
					res := s.do(context.Background(), req)
					if res.Err != nil || len(res.Solutions) != f.n {
						t.Errorf("in process: %v, %d solutions", res.Err, len(res.Solutions))
						return
					}
					got = res.Solutions[0].Subject
					if res.frag != nil {
						mu.Lock()
						if p, ok := first[&res.Solutions[0]]; !ok {
							first[&res.Solutions[0]] = &res.frag[0]
						} else if p != &res.frag[0] {
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

// handlerFixture returns a handler over a backend that answers n
// solutions of benchmark-like names, and the request for them.
func handlerFixture(tb testing.TB, n int, cfg Config) (http.Handler, string) {
	s := New(&wireFake{names: []string{"Q1234567", "Q7654321"}, n: n}, cfg)
	tb.Cleanup(func() { s.Close() })
	return NewHandler(s, HandlerConfig{}), `{"subject":"Q1","expr":"P1/P2*","limit":1000}`
}

// cacheHitFixture returns a handler whose cache holds one result of n
// solutions, and the request that hits it.
func cacheHitFixture(tb testing.TB, n int) (http.Handler, string) {
	h, body := handlerFixture(tb, n, Config{Workers: 1})
	for i := 0; i < 2; i++ {
		if rec := serve(h, "/query", body); rec.Code != 200 || (i == 1 && !strings.Contains(rec.Body.String(), `"cached":true`)) {
			tb.Fatalf("warm-up %d: %d %.80s", i, rec.Code, rec.Body)
		}
	}
	return h, body
}

func benchmarkHandler(b *testing.B, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	for b.Loop() {
		rec.Body.Reset()
		req, _ := http.NewRequest("POST", "/query", strings.NewReader(body))
		h.ServeHTTP(rec, req)
	}
	b.SetBytes(int64(rec.Body.Len()))
}

// BenchmarkHandlerCacheHit is the request the rpq_cached workload is
// made of: a 1000-solution result (a 37 kB body) replayed from the
// result cache through the handler.
func BenchmarkHandlerCacheHit(b *testing.B) {
	h, body := cacheHitFixture(b, 1000)
	benchmarkHandler(b, h, body)
}

// BenchmarkHandlerMiss is the rpq_static request on its own: the same
// 1000-solution result with the result cache off, so that every call
// evaluates and encodes its 37 kB body.
func BenchmarkHandlerMiss(b *testing.B) {
	h, body := handlerFixture(b, 1000, Config{Workers: 1, ResultCacheEntries: -1})
	benchmarkHandler(b, h, body)
}

// TestMissEncodesFragmentOnce: a miss encodes its fragment once, for
// both shapes, with or without strings to escape. A result the cache
// keeps carries it at exactly its length; one it does not keep carries
// none, and its fragment is appended into the response's buffer with
// no allocation of its own.
func TestMissEncodesFragmentOnce(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	for _, names := range [][]string{mixedNames, {"Q1234567", "Q7654321"}} {
		for _, entries := range []int{-1, 0} {
			s := newTestService(t, &wireFake{names: names, n: 1000}, Config{Workers: 1, ResultCacheEntries: entries})
			for _, req := range []Request{{Subject: "s", Expr: "a"}, {Pattern: "?x p ?y"}} {
				res := s.do(context.Background(), req)
				if res.Err != nil || res.N != 1000 || (res.frag != nil) != (entries == 0) {
					t.Fatalf("cache entries %d, %+v: %v, %d results, stored %v", entries, req, res.Err, res.N, res.frag != nil)
				}
				pattern := req.Pattern != ""
				if res.frag != nil {
					if want := appendFragment(nil, &res, pattern); !bytes.Equal(res.frag, want) || cap(res.frag) != len(res.frag) {
						t.Errorf("names %.2q, %+v: stored %d bytes in a buffer of %d, want the %d encoded", names, req, len(res.frag), cap(res.frag), len(want))
					}
					continue
				}
				if allocs := testing.AllocsPerRun(10, func() { appendFragment(buf[:0], &res, pattern) }); allocs != 0 {
					t.Errorf("names %.2q, %+v: %v allocations per appended fragment, want 0", names, req, allocs)
				}
			}
		}
	}
}

// countFake answers every 2RPQ with the first n of its solutions, at a
// data version that moves with every request, so that each request is
// a result-cache miss whose answer is stored.
type countFake struct {
	stubBackend
	sols    []Solution
	n       int
	version atomic.Uint64
}

func (f *countFake) Clone() Backend      { return f }
func (f *countFake) DataVersion() uint64 { return f.version.Add(1) }

func (f *countFake) Eval(_ context.Context, _ string, _ pathexpr.Node, _ string, _ int, _ time.Duration, emit func(Solution) bool) error {
	for _, sol := range f.sols[:f.n] {
		if !emit(sol) {
			break
		}
	}
	return nil
}

// TestStoredMissAllocsFlat: a stored miss allocates the same number of
// objects whatever its answer's size. The solutions and the fragment
// grow in the worker's scratch, and the result gets one exact-size copy
// of each, where growing them per answer would add about log n.
func TestStoredMissAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	f := &countFake{}
	for i := range 10000 {
		f.sols = append(f.sols, Solution{Subject: fmt.Sprint("Q", i), Object: fmt.Sprint("Q", i+1)})
	}
	s := newTestService(t, f, Config{Workers: 1})
	req := Request{Subject: "Q1", Expr: "a"}
	allocs := map[int]float64{}
	for _, n := range []int{10, 1000, 10000} {
		f.n = n
		allocs[n] = testing.AllocsPerRun(20, func() {
			if res := s.do(context.Background(), req); res.Err != nil || res.N != n || res.Cached || res.frag == nil {
				t.Fatalf("n = %d: %v, %d solutions, cached %v, stored %v", n, res.Err, res.N, res.Cached, res.frag != nil)
			}
		})
	}
	t.Logf("allocations per stored miss by answer size: %v", allocs)
	for _, n := range []int{1000, 10000} {
		if d := allocs[n] - allocs[10]; d > 2 || d < -2 {
			t.Errorf("a stored miss of %d solutions allocates %v objects, of 10 solutions %v", n, allocs[n], allocs[10])
		}
	}
}

// TestCacheHitAllocatesNothingPerSolution: a hit allocates for the
// request (its decoded fields, the cache key), not for the result —
// under 4 KiB where the body is 37 kB.
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

// TestAppendTailMatchesEncoder: the hand-appended tail is byte for byte
// json.Marshal's resultTail, for every combination of its fields, an
// error that needs escaping and elapsed times across encoding/json's
// switch to exponent form.
func TestAppendTailMatchesEncoder(t *testing.T) {
	errs := append([]string{"", `bad expression "a/(b" at <1> & more`}, nastyNames...)
	elapsed := []float64{0, 0.001, 1.5, 123456.789, 1e21, 1e-7, 5e-324, 0.000001, 999999999999999.9}
	for _, count := range []int{0, 7, 1 << 40} {
		for flags := 0; flags < 8; flags++ {
			for _, e := range errs {
				for _, ms := range elapsed {
					tail := resultTail{
						Count: count, Cached: flags&1 != 0, Truncated: flags&2 != 0, LimitReached: flags&4 != 0,
						Error: e, ElapsedMS: ms,
					}
					want, err := json.Marshal(tail)
					if err != nil {
						t.Fatal(err)
					}
					got := append(appendTail([]byte{'{'}, &tail), '}')
					if !bytes.Equal(got, want) {
						t.Fatalf("%+v:\n got %s\nwant %s", tail, got, want)
					}
				}
			}
		}
	}
}

// countingConn counts the writes a server makes to one connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// TestHitConnWrites: a 1000-solution hit, written as '{', the cache
// entry's fragment and a pooled tail, still reaches the connection in
// three writes (the first 4 kB, the rest of the fragment, the tail with
// the chunk terminator), and its body is what json.Encoder writes.
func TestHitConnWrites(t *testing.T) {
	h, body := cacheHitFixture(t, 1000)
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	defer ts.Close()
	post := func() ([]byte, int64) {
		before := writes.Load()
		resp, err := ts.Client().Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil || resp.StatusCode != 200 {
			t.Fatalf("%d, %v", resp.StatusCode, err)
		}
		return out.Bytes(), writes.Load() - before
	}
	post() // opens the connection
	for i := 0; i < 3; i++ {
		got, n := post()
		if n != 3 {
			t.Errorf("hit %d took %d conn writes, want 3", i, n)
		}
		var seen ResultJSON
		if err := json.Unmarshal(got, &seen); err != nil || !seen.Cached || len(seen.Solutions) != 1000 {
			t.Fatalf("hit %d: cached %v, %d solutions, %v", i, seen.Cached, len(seen.Solutions), err)
		}
		if want := encoderBody(t, seen); !bytes.Equal(got, want) {
			t.Fatalf("hit %d:\n got %.200s\nwant %.200s", i, got, want)
		}
	}
}

// discardWriter is a ResponseWriter to reuse across requests.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestCacheHitAllocs pins the allocations of a 1000-solution hit
// through the handler, request and ResponseWriter reused: the decoded
// request with its limit and its two strings, the body-size guard, the
// cache key and the Content-Type header.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const ceiling = 7
	h, body := cacheHitFixture(t, 1000)
	rd := strings.NewReader(body)
	req := httptest.NewRequest("POST", "/query", nil)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.n = 0
		h.ServeHTTP(w, req)
	})
	if w.n < 30<<10 {
		t.Fatalf("wrote %d B, want the 37 kB of a 1000-solution hit", w.n)
	}
	t.Logf("%v allocations per hit", allocs)
	if allocs > ceiling {
		t.Errorf("a cache hit allocates %v objects, ceiling %d", allocs, ceiling)
	}
}
