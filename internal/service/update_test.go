package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
)

// TestQueueWaitCountsAgainstDeadline pins the satellite-2 contract: a
// request's deadline is anchored at submission, so time spent queued
// behind a saturated pool consumes its budget instead of granting a
// fresh one when a worker finally picks it up.
func TestQueueWaitCountsAgainstDeadline(t *testing.T) {
	f := newFake(1)
	f.shared.gate = make(chan struct{})
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()

	first := make(chan Result, 1)
	go func() { first <- s.Query(ctx, Request{Expr: "a"}) }()
	// Let the only worker pick up and block on the first request, then
	// queue a second with a 30ms budget and hold the worker well past it.
	time.Sleep(30 * time.Millisecond)
	second := make(chan Result, 1)
	go func() { second <- s.Query(ctx, Request{Expr: "b", Timeout: 30 * time.Millisecond}) }()
	time.Sleep(120 * time.Millisecond)
	close(f.shared.gate)

	if res := <-first; res.Err != nil {
		t.Fatalf("first request failed: %v", res.Err)
	}
	res := <-second
	if !errors.Is(res.Err, core.ErrTimeout) {
		t.Fatalf("queued-out request: err = %v, want ErrTimeout", res.Err)
	}
	if res.N != 0 {
		t.Fatalf("queued-out request evaluated %d solutions, want none", res.N)
	}
	if evals := f.shared.evals.Load(); evals != 1 {
		t.Fatalf("backend evaluated %d times; the expired request should never reach it", evals)
	}
	st := s.Stats()
	if st.Timeouts == 0 {
		t.Fatalf("stats should count the queue-wait timeout: %+v", st)
	}
	if st.QueueWaitNS <= 0 {
		t.Fatalf("stats should accumulate queue wait, got %d", st.QueueWaitNS)
	}
}

// partialFake emits two solutions and times out when given less than
// 50ms of budget, and completes five solutions otherwise — the shape
// that would poison a cache that stored truncated results.
type partialFake struct{ evals atomic.Int64 }

func (f *partialFake) Clone() Backend { return f }

func (f *partialFake) Eval(_ context.Context, subject string, expr pathexpr.Node, object string, limit int, timeout time.Duration, emit func(Solution) bool) error {
	f.evals.Add(1)
	n := 5
	var fail error
	if timeout > 0 && timeout < 50*time.Millisecond {
		n, fail = 2, core.ErrTimeout
	}
	for i := 0; i < n; i++ {
		if !emit(Solution{Subject: fmt.Sprintf("s%d", i), Object: "o"}) {
			break
		}
	}
	return fail
}

// TestTruncatedResultsNeverCached pins the satellite-3 cache contract
// that makes cacheKey's non-inclusion of Timeout safe: truncated
// results are never stored, so a later request with any timeout either
// recomputes or is served a complete result.
func TestTruncatedResultsNeverCached(t *testing.T) {
	f := &partialFake{}
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()
	req := func(d time.Duration) Request { return Request{Expr: "a", Timeout: d} }

	r1 := s.Query(ctx, req(time.Millisecond))
	if !errors.Is(r1.Err, core.ErrTimeout) || r1.N != 2 {
		t.Fatalf("truncated run: n=%d err=%v, want 2 partial solutions + ErrTimeout", r1.N, r1.Err)
	}
	if st := s.Stats(); st.ResultEntries != 0 {
		t.Fatalf("truncated result was cached: %d entries", st.ResultEntries)
	}

	// Same cache key, longer budget: must recompute, not replay the
	// truncated result.
	r2 := s.Query(ctx, req(time.Second))
	if r2.Err != nil || r2.N != 5 || r2.Cached {
		t.Fatalf("complete run: n=%d cached=%v err=%v, want 5 fresh solutions", r2.N, r2.Cached, r2.Err)
	}

	// A third timeout value hits the cache — and gets the complete
	// result, which is why Timeout can stay out of the key.
	r3 := s.Query(ctx, req(2*time.Second))
	if !r3.Cached || r3.N != 5 {
		t.Fatalf("cached run: n=%d cached=%v, want the complete cached result", r3.N, r3.Cached)
	}
	if evals := f.evals.Load(); evals != 2 {
		t.Fatalf("backend evaluated %d times, want 2 (truncated + complete)", evals)
	}
}

// versionedFake flips its answer when bumped, exposing stale cache
// replays.
type versionedFake struct {
	version atomic.Uint64
	marker  atomic.Int64
}

func (f *versionedFake) Clone() Backend      { return f }
func (f *versionedFake) DataVersion() uint64 { return f.version.Load() }

func (f *versionedFake) Eval(_ context.Context, subject string, expr pathexpr.Node, object string, limit int, timeout time.Duration, emit func(Solution) bool) error {
	emit(Solution{Subject: fmt.Sprintf("m%d", f.marker.Load()), Object: "o"})
	return nil
}

func (f *versionedFake) ApplyUpdates(_ context.Context, adds, dels []UpdateTriple) (UpdateResult, error) {
	f.marker.Add(int64(len(adds) + len(dels)))
	v := f.version.Add(1)
	return UpdateResult{Version: v}, nil
}

// TestUpdateInvalidatesResultCache checks the data-version pinning: an
// update makes every older cache entry unservable.
func TestUpdateInvalidatesResultCache(t *testing.T) {
	f := &versionedFake{}
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()

	r1 := s.Query(ctx, Request{Expr: "a"})
	if r1.Err != nil || r1.Solutions[0].Subject != "m0" {
		t.Fatalf("first run: %+v", r1)
	}
	if r2 := s.Query(ctx, Request{Expr: "a"}); !r2.Cached {
		t.Fatalf("second run should hit the cache: %+v", r2)
	}

	if _, err := s.Update(ctx, []UpdateTriple{{S: "x", P: "p", O: "y"}}, nil); err != nil {
		t.Fatal(err)
	}
	r3 := s.Query(ctx, Request{Expr: "a"})
	if r3.Cached || r3.Solutions[0].Subject != "m1" {
		t.Fatalf("post-update run must recompute: %+v", r3)
	}
	if st := s.Stats(); st.Updates != 1 {
		t.Fatalf("stats.Updates = %d, want 1", st.Updates)
	}
}

// TestUpdateUnsupportedBackend checks the typed failure for static
// backends.
func TestUpdateUnsupportedBackend(t *testing.T) {
	s := newTestService(t, newFake(1), Config{Workers: 1})
	if _, err := s.Update(context.Background(), []UpdateTriple{{S: "a", P: "b", O: "c"}}, nil); err == nil {
		t.Fatal("update against a static backend should fail")
	}
}

func TestDecodeNDJSONUpdates(t *testing.T) {
	in := `
{"s":"a","p":"knows","o":"b"}
{"op":"add","s":"b","p":"knows","o":"c"}

{"op":"del","s":"a","p":"knows","o":"b"}
`
	adds, dels, err := DecodeNDJSONUpdates(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(adds) != 2 || len(dels) != 1 || adds[1].O != "c" || dels[0].S != "a" {
		t.Fatalf("decoded adds=%v dels=%v", adds, dels)
	}

	for _, bad := range []string{
		`{"s":"a","p":"b"}`,                          // missing o
		`{"op":"zap","s":"a","p":"b","o":"c"}`,       // unknown op
		`{"s":"a","p":"b","o":"c"} {"s":"x"}`,        // trailing data
		`{"s":"a","p":"b","o":"c","bogus":true}`,     // unknown field
		"{\"s\":\"a\",\"p\":\"b\",\"o\":\"c\"}\n{?}", // malformed line
	} {
		if _, _, err := DecodeNDJSONUpdates(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q should fail", bad)
		}
	}
}

// FuzzDecodeNDJSONUpdates hardens the bulk decoder: it must never
// panic, and every accepted triple must be fully populated.
func FuzzDecodeNDJSONUpdates(f *testing.F) {
	f.Add(`{"s":"a","p":"b","o":"c"}`)
	f.Add("{\"op\":\"del\",\"s\":\"a\",\"p\":\"b\",\"o\":\"c\"}\n{\"s\":\"x\",\"p\":\"y\",\"o\":\"z\"}")
	f.Add(`{"s":"","p":"b","o":"c"}`)
	f.Add("not json at all")
	f.Fuzz(func(t *testing.T, in string) {
		adds, dels, err := DecodeNDJSONUpdates(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, tr := range append(adds, dels...) {
			if tr.S == "" || tr.P == "" || tr.O == "" {
				t.Fatalf("accepted incomplete triple %+v from %q", tr, in)
			}
		}
	})
}

// upHTTPFake adapts versionedFake for the HTTP /update tests.
func TestHTTPUpdate(t *testing.T) {
	f := &versionedFake{}
	srv := newTestServer(t, f, Config{Workers: 1}, HandlerConfig{})

	resp, body := postJSON(t, srv.URL+"/update", `{"add":[{"s":"a","p":"knows","o":"b"}],"del":[{"s":"x","p":"knows","o":"y"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"added":1`) || !strings.Contains(string(body), `"deleted":1`) {
		t.Fatalf("update response: %s", body)
	}

	// Bulk NDJSON.
	req, _ := http.NewRequest("POST", srv.URL+"/update",
		strings.NewReader("{\"s\":\"a\",\"p\":\"knows\",\"o\":\"c\"}\n{\"op\":\"del\",\"s\":\"a\",\"p\":\"knows\",\"o\":\"b\"}"))
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("ndjson update: %d", resp2.StatusCode)
	}

	// Malformed bodies are 400s.
	for _, bad := range []string{`{}`, `{"add":[{"s":"a"}]}`, `{"add":`} {
		if resp, _ := postJSON(t, srv.URL+"/update", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad update %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
