package service

// Worker panic isolation: a panicking evaluation must fail only its own
// request (ErrInternal, HTTP 500), leave the pool serving, and be
// visible in Stats.Panics.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
)

// panicFake panics on subject "boom", blocks on the gate for subject
// "block", and otherwise emits one solution.
type panicFake struct {
	stubBackend
	shared  *fakeShared
	entered chan struct{} // closed once a "block" evaluation has started
	clones  atomic.Int64
}

func (f *panicFake) Clone() Backend {
	f.clones.Add(1)
	return f
}

func (f *panicFake) Eval(_ context.Context, subject string, expr pathexpr.Node, object string, limit int, emit func(Solution) bool) error {
	f.shared.evals.Add(1)
	switch subject {
	case "boom":
		panic("kaboom: injected evaluation panic")
	case "block":
		select {
		case <-f.entered:
		default:
			close(f.entered)
		}
		<-f.shared.gate
	}
	emit(Solution{Subject: subject, Object: "ok"})
	return nil
}

func TestWorkerPanicIsolated(t *testing.T) {
	f := &panicFake{shared: &fakeShared{}, entered: make(chan struct{})}
	s := newTestService(t, f, Config{Workers: 1, ResultCacheEntries: -1})
	ctx := context.Background()

	res := s.Query(ctx, Request{Subject: "boom", Expr: "a", Object: "?y"})
	if !errors.Is(res.Err, ErrInternal) {
		t.Fatalf("panicking query err = %v, want ErrInternal", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "kaboom") {
		t.Fatalf("panic value lost from error: %v", res.Err)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}

	// The single worker must have survived (fresh clone) and keep
	// serving.
	res = s.Query(ctx, Request{Subject: "fine", Expr: "a", Object: "?y"})
	if res.Err != nil || len(res.Solutions) != 1 {
		t.Fatalf("query after panic = %+v", res)
	}
}

// TestQueuedJobsBehindPanicAndLapsedDeadline queues work behind a busy
// lone worker — a normal job, a panicking one, one whose deadline lapses
// while it waits, a normal one — and checks that worker → runSafe → run
// → finish answers each exactly once and keeps the counters straight.
func TestQueuedJobsBehindPanicAndLapsedDeadline(t *testing.T) {
	f := &panicFake{shared: &fakeShared{gate: make(chan struct{})}, entered: make(chan struct{})}
	s := newTestService(t, f, Config{Workers: 1, QueueDepth: 8, ResultCacheEntries: -1})
	ctx := context.Background()

	blocked := make(chan Result, 1)
	go func() { blocked <- s.Query(ctx, Request{Subject: "block", Expr: "a", Object: "?y"}) }()
	<-f.entered

	// Batch enqueues every request, in order, before it waits.
	queued := make(chan []Result, 1)
	go func() {
		queued <- s.Batch(ctx, []Request{
			{Subject: "first", Expr: "a", Object: "?y"},
			{Subject: "boom", Expr: "a", Object: "?y"},
			{Subject: "late", Expr: "a", Object: "?y", Timeout: time.Millisecond},
			{Subject: "last", Expr: "a", Object: "?y"},
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueLen < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// The "late" deadline is wall-clock, anchored at submission: only
	// time passing makes it lapse in the queue.
	time.Sleep(5 * time.Millisecond)
	close(f.shared.gate)

	if r := <-blocked; r.Err != nil || len(r.Solutions) != 1 {
		t.Fatalf("blocked query = %+v", r)
	}
	var res []Result
	select {
	case res = <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("queued jobs never completed")
	}
	for _, i := range []int{0, 3} {
		if r := res[i]; r.Err != nil || len(r.Solutions) != 1 || r.Solutions[0].Object != "ok" {
			t.Fatalf("queued job %d = %+v, want its solo answer", i, r)
		}
	}
	if !errors.Is(res[1].Err, ErrInternal) {
		t.Fatalf("panicking job err = %v, want ErrInternal", res[1].Err)
	}
	if !errors.Is(res[2].Err, core.ErrTimeout) || res[2].N != 0 {
		t.Fatalf("lapsed job = %+v, want an empty ErrTimeout result", res[2])
	}
	// Eval was entered for block, first, boom and last — never for late —
	// and last ran on the clone that replaced the panicked one.
	if n := f.shared.evals.Load(); n != 4 {
		t.Fatalf("backend entered %d times, want 4", n)
	}
	if n := f.clones.Load(); n != 2 {
		t.Fatalf("backend cloned %d times, want 2 (pool start + after the panic)", n)
	}
	st := s.Stats()
	if st.Requests != 5 || st.Completed != 5 || st.Panics != 1 || st.Timeouts != 1 ||
		st.Errors != 1 || st.Inflight != 0 || st.QueueLen != 0 {
		t.Fatalf("stats after five submissions: %+v", st)
	}
}

func TestPanicMapsToHTTP500(t *testing.T) {
	f := &panicFake{shared: &fakeShared{}, entered: make(chan struct{})}
	s := newTestService(t, f, Config{Workers: 1, ResultCacheEntries: -1})
	h := NewHandler(s, HandlerConfig{})

	body := `{"subject":"boom","expr":"a","object":"?y"}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", rec.Code, rec.Body)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
		t.Fatalf("error body = %q (%v)", rec.Body, err)
	}

	// And the service still answers.
	req = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"subject":"fine","expr":"a","object":"?y"}`))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status after panic = %d (body %s)", rec.Code, rec.Body)
	}
}
