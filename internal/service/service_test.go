package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/standing"
)

// stubBackend implements every Backend method but Clone the way an
// empty, static index without patterns, updates or subscriptions
// would; a test fake embeds it and defines the methods it exercises.
type stubBackend struct{}

var errStub = errors.New("stub backend: not supported")

func (stubBackend) Eval(context.Context, string, pathexpr.Node, string, int, func(Solution) bool) error {
	return nil
}

func (stubBackend) EvalPattern(context.Context, *query.Query, int, func([]string) bool) error {
	return errStub
}

func (stubBackend) ApplyUpdates(context.Context, []UpdateTriple, []UpdateTriple) (UpdateResult, error) {
	return UpdateResult{}, errStub
}

func (stubBackend) DataVersion() uint64 { return 0 }

func (stubBackend) Subscribe(standing.Request) (*standing.Sub, error) { return nil, errStub }

func (stubBackend) ResumeSubscription(uint64, uint64) (*standing.Sub, error) { return nil, errStub }

func (stubBackend) Unsubscribe(uint64) bool { return false }

func (stubBackend) BackendStats() (standing.Stats, WALStats, any) {
	return standing.Stats{}, WALStats{}, nil
}

func (stubBackend) WALErr() error { return nil }

// fakeShared is the "index" shared by fake backend clones: counters
// plus knobs controlling solution counts, latency and blocking.
type fakeShared struct {
	evals     atomic.Int64
	active    atomic.Int64
	maxActive atomic.Int64
	solutions int           // solutions per query
	delay     time.Duration // evaluation latency
	gate      chan struct{} // when non-nil, Eval blocks until closed
}

// fake is one backend clone. It panics on concurrent use, which the
// race stress tests would surface as a pool confinement bug.
type fake struct {
	stubBackend
	shared *fakeShared
	busy   atomic.Bool
}

func newFake(solutions int) *fake {
	return &fake{shared: &fakeShared{solutions: solutions}}
}

func (f *fake) Clone() Backend { return &fake{shared: f.shared} }

func (f *fake) Eval(ctx context.Context, subject string, expr pathexpr.Node, object string, limit int, emit func(Solution) bool) error {
	if f.busy.Swap(true) {
		panic("fake backend used concurrently")
	}
	defer f.busy.Store(false)
	sh := f.shared
	sh.evals.Add(1)
	a := sh.active.Add(1)
	defer sh.active.Add(-1)
	for {
		m := sh.maxActive.Load()
		if a <= m || sh.maxActive.CompareAndSwap(m, a) {
			break
		}
	}
	if sh.gate != nil {
		<-sh.gate
	}
	if sh.delay > 0 {
		select {
		case <-time.After(sh.delay):
		case <-ctx.Done():
			return core.CtxErr(ctx)
		}
	}
	n := sh.solutions
	if limit > 0 && limit < n {
		n = limit
	}
	canon := pathexpr.String(expr)
	for i := 0; i < n; i++ {
		if !emit(Solution{Subject: fmt.Sprintf("%s#%d", subject, i), Object: canon}) {
			break
		}
	}
	return nil
}

func newTestService(t *testing.T, b Backend, cfg Config) *Service {
	t.Helper()
	s := New(b, cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestQueryAndCount(t *testing.T) {
	f := newFake(3)
	s := newTestService(t, f, Config{Workers: 2})
	ctx := context.Background()

	res := s.Query(ctx, Request{Subject: "?x", Expr: "a/b*", Object: "?y"})
	if res.Err != nil {
		t.Fatalf("Query: %v", res.Err)
	}
	if res.N != 3 || len(res.Solutions) != 3 {
		t.Fatalf("got %d solutions (N=%d), want 3", len(res.Solutions), res.N)
	}
	if res.Solutions[0].Object != "a/b*" {
		t.Fatalf("solution carries %q, want canonical expr", res.Solutions[0].Object)
	}

	cnt := s.Count(ctx, Request{Subject: "?x", Expr: "c", Object: "?y"})
	if cnt.Err != nil || cnt.N != 3 || cnt.Solutions != nil {
		t.Fatalf("Count: N=%d sols=%v err=%v", cnt.N, cnt.Solutions, cnt.Err)
	}

	st := s.Stats()
	if st.Requests != 2 || st.Completed != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	s := newTestService(t, newFake(1), Config{Workers: 1})
	res := s.Query(context.Background(), Request{Expr: "(((a"})
	if res.Err == nil {
		t.Fatal("want parse error")
	}
	if got := s.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}
	if got := s.Stats().Completed; got != 0 {
		t.Fatalf("parse failures must not reach workers; Completed = %d", got)
	}
}

func TestResultCache(t *testing.T) {
	f := newFake(2)
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Subject: "?x", Expr: "a/b", Object: "?y"}

	first := s.Query(ctx, req)
	second := s.Query(ctx, req)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%v second=%v", first.Cached, second.Cached)
	}
	if f.shared.evals.Load() != 1 {
		t.Fatalf("evals = %d, want 1", f.shared.evals.Load())
	}
	if len(second.Solutions) != 2 {
		t.Fatalf("cached result lost solutions: %v", second.Solutions)
	}

	// Syntactic variants canonicalise to the same key.
	variant := s.Query(ctx, Request{Subject: "?x", Expr: " (a) / b ", Object: "?y"})
	if !variant.Cached || f.shared.evals.Load() != 1 {
		t.Fatalf("variant missed the cache (evals=%d)", f.shared.evals.Load())
	}

	// A different limit is a different result set.
	limited := s.Query(ctx, Request{Subject: "?x", Expr: "a/b", Object: "?y", Limit: 1})
	if limited.Cached || limited.N != 1 || f.shared.evals.Load() != 2 {
		t.Fatalf("limit variant: cached=%v N=%d evals=%d", limited.Cached, limited.N, f.shared.evals.Load())
	}

	// Count and Query results live under distinct keys.
	cnt := s.Count(ctx, req)
	if cnt.Cached || cnt.N != 2 || f.shared.evals.Load() != 3 {
		t.Fatalf("count variant: cached=%v N=%d evals=%d", cnt.Cached, cnt.N, f.shared.evals.Load())
	}

	st := s.Stats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hit/miss accounting: %+v", st)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	f := newFake(1)
	s := newTestService(t, f, Config{Workers: 1, ResultCacheEntries: -1, ResultCacheBytes: -1})
	ctx := context.Background()
	req := Request{Subject: "?x", Expr: "a", Object: "?y"}
	s.Query(ctx, req)
	res := s.Query(ctx, req)
	if res.Cached || f.shared.evals.Load() != 2 {
		t.Fatalf("disabled cache still served a hit (evals=%d)", f.shared.evals.Load())
	}
}

func TestTimeouts(t *testing.T) {
	f := newFake(1)
	f.shared.delay = 50 * time.Millisecond
	s := newTestService(t, f, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Subject: "?x", Expr: "a", Object: "?y", Timeout: 5 * time.Millisecond}

	res := s.Query(ctx, req)
	if !errors.Is(res.Err, core.ErrTimeout) {
		t.Fatalf("want timeout, got %v", res.Err)
	}
	if s.Stats().Timeouts != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	// Timed-out (partial) results must not be cached.
	res = s.Query(ctx, req)
	if res.Cached {
		t.Fatal("partial result was cached")
	}
}

func TestDefaultTimeout(t *testing.T) {
	f := newFake(1)
	f.shared.delay = 50 * time.Millisecond
	s := newTestService(t, f, Config{Workers: 1, DefaultTimeout: 5 * time.Millisecond})
	res := s.Query(context.Background(), Request{Subject: "?x", Expr: "a", Object: "?y"})
	if !errors.Is(res.Err, core.ErrTimeout) {
		t.Fatalf("default timeout not applied: %v", res.Err)
	}
}

func TestContextDeadline(t *testing.T) {
	f := newFake(1)
	f.shared.delay = 100 * time.Millisecond
	s := newTestService(t, f, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res := s.Query(ctx, Request{Subject: "?x", Expr: "a", Object: "?y"})
	if !errors.Is(res.Err, core.ErrTimeout) {
		t.Fatalf("context deadline: err = %v, want ErrTimeout", res.Err)
	}
}

// A context deadline that passes while the request waits in the queue
// is a timeout too (an empty truncated result), as the request's own
// budget is (TestQueuedJobsBehindPanicAndLapsedDeadline); a context
// cancelled there stays a cancellation.
func TestContextDeadlinePassedInQueue(t *testing.T) {
	// Both contexts end 50 ms after submission, long enough for the
	// request to be queued first.
	const after = 50 * time.Millisecond
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), after)
		}, core.ErrTimeout},
		{"cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(after, cancel)
			return ctx, cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(1)
			f.shared.gate = make(chan struct{})
			s := newTestService(t, f, Config{Workers: 1, ResultCacheEntries: -1})
			// Occupy the one worker so the request under test queues.
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Query(context.Background(), Request{Subject: "?x", Expr: "a", Object: "?y"})
			}()
			waitFor(t, func() bool { return s.Stats().Inflight == 1 })
			ctx, cancel := tc.ctx()
			defer cancel()
			got := make(chan Result, 1)
			go func() { got <- s.Query(ctx, Request{Subject: "?q", Expr: "a", Object: "?y"}) }()
			waitFor(t, func() bool { return s.Stats().QueueLen == 1 })
			<-ctx.Done()
			close(f.shared.gate)
			res := <-got
			<-done
			if !errors.Is(res.Err, tc.want) || len(res.Solutions) != 0 {
				t.Fatalf("err = %v with %d solutions, want %v and none", res.Err, len(res.Solutions), tc.want)
			}
		})
	}
}

func TestQueueBackpressure(t *testing.T) {
	f := newFake(1)
	f.shared.gate = make(chan struct{})
	s := newTestService(t, f, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	// Occupy the worker and fill the queue.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Query(ctx, Request{Subject: fmt.Sprintf("?x%d", i), Expr: "a", Object: "?y"})
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().Inflight == 1 && s.Stats().QueueLen == 1 })

	// A submission with an already-expired context is rejected instead
	// of blocking forever.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	res := s.Query(expired, Request{Subject: "?z", Expr: "a", Object: "?y"})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", res.Err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}

	close(f.shared.gate)
	wg.Wait()
}

func TestParallelEvaluation(t *testing.T) {
	f := newFake(1)
	f.shared.gate = make(chan struct{})
	s := newTestService(t, f, Config{Workers: 4, ResultCacheEntries: -1})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Query(ctx, Request{Subject: fmt.Sprintf("?x%d", i), Expr: "a", Object: "?y"})
		}(i)
	}
	waitFor(t, func() bool { return f.shared.active.Load() == 4 })
	close(f.shared.gate)
	wg.Wait()
	if got := f.shared.maxActive.Load(); got != 4 {
		t.Fatalf("max concurrent evaluations = %d, want 4", got)
	}
}

func TestBatch(t *testing.T) {
	f := newFake(2)
	s := newTestService(t, f, Config{Workers: 2, QueueDepth: 2})
	ctx := context.Background()

	reqs := []Request{
		{Subject: "?a", Expr: "p1", Object: "?b"},
		{Subject: "?a", Expr: "(((", Object: "?b"}, // parse error
		{Subject: "?a", Expr: "p2*", Object: "?b", Count: true},
		{Subject: "?a", Expr: "p1", Object: "?b"}, // duplicate of [0]
	}
	out := s.Batch(ctx, reqs)
	if len(out) != 4 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Err != nil || out[0].N != 2 {
		t.Fatalf("batch[0]: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("batch[1]: want parse error")
	}
	if out[2].Err != nil || out[2].N != 2 || out[2].Solutions != nil {
		t.Fatalf("batch[2]: %+v", out[2])
	}
	if out[3].Err != nil || out[3].N != 2 {
		t.Fatalf("batch[3]: %+v", out[3])
	}
	// The duplicate may or may not hit the cache depending on
	// scheduling; batches on a fresh service must evaluate at most 3.
	if evals := f.shared.evals.Load(); evals > 3 {
		t.Fatalf("evals = %d, want ≤ 3", evals)
	}
	if s.Stats().Batches != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestCloseGraceful(t *testing.T) {
	f := newFake(1)
	f.shared.gate = make(chan struct{})
	s := New(f, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// One running, two queued.
	results := make(chan Result, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			results <- s.Query(ctx, Request{Subject: fmt.Sprintf("?x%d", i), Expr: "a", Object: "?y"})
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().Inflight == 1 && s.Stats().QueueLen == 2 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Close must wait for queued work.
	select {
	case <-closed:
		t.Fatal("Close returned with jobs still queued")
	case <-time.After(20 * time.Millisecond):
	}

	close(f.shared.gate)
	<-closed
	for i := 0; i < 3; i++ {
		if res := <-results; res.Err != nil {
			t.Fatalf("queued job dropped at shutdown: %v", res.Err)
		}
	}

	// After Close: fail fast, idempotent.
	if res := s.Query(ctx, Request{Expr: "a"}); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", res.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClosedBeatsCache(t *testing.T) {
	f := newFake(1)
	s := New(f, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Subject: "?x", Expr: "a", Object: "?y"}
	if res := s.Query(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	s.Close()
	// Even a request the result cache could serve fails fast after
	// Close, keeping post-Close behavior uniform.
	if res := s.Query(ctx, req); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("cached result served after Close: %+v", res)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
