// Package service turns the single-threaded ring RPQ engine into a
// concurrent query service. The ring index is immutable after
// construction, so it can be shared lock-free by any number of
// evaluation engines; what each engine owns privately is a set of
// working arrays (core.Engine). The service multiplexes requests over a
// fixed pool of such engines, all clones of one Backend:
//
//	clients → bounded queue → N workers (one Backend clone each) → shared index
//
// On top of the pool sit three caches: an expression cache and a
// pattern cache that canonicalise path expressions and graph patterns
// and reuse their parsed forms across requests, and an LRU result
// cache bounded by entry count and bytes and pinned to the backend's
// data version. Requests carry per-call limits and deadlines, batches
// fan out across the pool, and Close drains the queue for a graceful
// shutdown.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/standing"
)

// Solution is one result mapping of a query (mirrored by the public
// ringrpq.Solution alias).
type Solution struct {
	// Subject and Object name the path's endpoints.
	Subject, Object string
}

// Backend is the index a Service runs over. Clone, Eval and
// EvalPattern evaluate one query at a time and are not safe for
// concurrent use: the pool calls Clone once per worker and then confines
// each clone to its goroutine. Every other method goes to the backend
// the Service was built over, never through the pool, and must be safe
// for concurrent use.
type Backend interface {
	// Clone returns an independent evaluator over the same index.
	Clone() Backend
	// Eval evaluates (subject, expr, object), streaming solutions to
	// emit until exhaustion or until emit returns false. Endpoints
	// beginning with '?' are variables. A limit of 0 means unlimited.
	// ctx is the request's one time budget: the service has folded the
	// request's timeout into its deadline. A passed deadline returns
	// core.ErrTimeout and a cancellation ctx.Err(), with the solutions
	// emitted so far still valid. ctx also carries request-scoped
	// telemetry (an obs.Trace for profiled requests).
	Eval(ctx context.Context, subject string, expr pathexpr.Node, object string, limit int, emit func(Solution) bool) error
	// EvalPattern streams the projected, deduplicated result rows of
	// the graph pattern q (values ordered by q.OutVars()); limit caps
	// rows, and ctx bounds it as it bounds Eval.
	EvalPattern(ctx context.Context, q *query.Query, limit int, emit func(row []string) bool) error

	// ApplyUpdates applies one live-update batch, adds then dels
	// (POST /update).
	ApplyUpdates(ctx context.Context, adds, dels []UpdateTriple) (UpdateResult, error)
	// DataVersion advances on every visible change to the data —
	// applies and compaction swaps. The result cache keys its entries
	// to it, so results computed against superseded data are never
	// replayed.
	DataVersion() uint64

	// Subscribe, ResumeSubscription and Unsubscribe register, reattach
	// and end standing queries (GET and DELETE /subscribe).
	Subscribe(req standing.Request) (*standing.Sub, error)
	ResumeSubscription(id, from uint64) (*standing.Sub, error)
	Unsubscribe(id uint64) bool

	// BackendStats reports the Standing and WAL blocks of Stats, and
	// index, the block GET /stats renders under "index" (nil for none).
	BackendStats() (st standing.Stats, wal WALStats, index any)
	// WALErr returns the write-ahead log's latched I/O failure, or nil
	// (also without a log). GET /readyz reads only this.
	WALErr() error
}

// UpdateTriple is one update triple in string form.
type UpdateTriple struct {
	S, P, O string
}

// UpdateResult reports the index state after an update batch.
type UpdateResult struct {
	// OverlayEdges/Tombstones are the pending completed overlay sizes.
	OverlayEdges, Tombstones int
	// Epoch counts snapshot swaps; Version counts data changes.
	Epoch, Version uint64
	// Compacting reports a background compaction in flight.
	Compacting bool
}

// Config tunes a Service. The zero value picks sensible defaults;
// negative cache sizes disable the corresponding cache.
type Config struct {
	// Workers is the pool size (engines evaluating concurrently).
	// Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of requests waiting for a worker;
	// submissions beyond it block until a slot frees or the caller's
	// context fires. Default: 4×Workers.
	QueueDepth int
	// DefaultTimeout applies to requests that carry no timeout of their
	// own; an earlier context deadline still wins. Default: none.
	DefaultTimeout time.Duration
	// ResultCacheEntries bounds the result cache by entry count.
	// Default 4096; negative disables.
	ResultCacheEntries int
	// ResultCacheBytes bounds the result cache by approximate bytes.
	// Default 64 MiB; negative disables.
	ResultCacheBytes int64
	// SlowQueryThreshold enables the slow-query log: requests whose
	// end-to-end time (queue wait included) reaches it are recorded in
	// a bounded in-memory ring (GET /debug/slowlog) and mirrored to the
	// default slog logger. 0 disables.
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds the retained slow-query entries.
	// Default 128.
	SlowLogCapacity int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 4096
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	return c
}

// Request is one query submission: a 2RPQ (Subject/Expr/Object) or,
// when Pattern is set, a graph-pattern query.
type Request struct {
	// Subject and Object are endpoint names; a '?' prefix marks a
	// variable (as in ringrpq.DB.Query).
	Subject, Object string
	// Expr is the path expression source text. It may have at most
	// pathexpr.MaxPositions positions and nest at most
	// pathexpr.MaxDepth levels deep; a larger one fails to parse, which
	// the HTTP handler answers with a 400.
	Expr string
	// Pattern, when non-empty, makes this a graph-pattern request
	// (internal/query syntax); Subject/Expr/Object are ignored and the
	// result arrives as Vars/Rows instead of Solutions.
	Pattern string
	// Limit caps the number of solutions (pattern requests: distinct
	// projected rows); 0 or negative means unlimited.
	Limit int
	// Timeout bounds the request from its submission: the service
	// makes it the deadline of the request's context, unless that
	// context's own deadline is earlier. 0 or negative defers to the
	// context deadline and the service's DefaultTimeout.
	Timeout time.Duration
	// Count asks for the solution count only; Result.Solutions (or
	// Rows) stays nil.
	Count bool
	// Profile asks for a per-stage span trace of this request's
	// processing (queue wait, cache probes, compile, evaluation with
	// per-level traversal detail) in Result.Trace — an EXPLAIN ANALYZE
	// for the ring. Profiled requests still read the result cache (the
	// trace then shows the hit).
	Profile bool
}

// Result is the outcome of one Request.
type Result struct {
	// Solutions holds the result set (nil for Count and pattern
	// requests). Shared with the result cache: callers must not modify
	// it.
	Solutions []Solution
	// Vars and Rows hold a pattern request's projected result table
	// (Rows nil for Count requests); shared with the result cache like
	// Solutions.
	Vars []string
	Rows [][]string
	// N is the solution count (also set for non-Count requests).
	N int
	// Cached reports a result-cache hit.
	Cached bool
	// Err is nil on success; core.ErrTimeout flags a truncated result
	// (Solutions/N still hold what was found in time).
	Err error
	// Trace is the span trace of a profiled request (Request.Profile or
	// an obs.Trace attached to the submission context); nil otherwise.
	// Render it with Trace.Render. Never shared with the result cache.
	Trace *obs.Trace
	// frag is the encoded fragment of a result the cache holds (see
	// wire.go), shared with the entry and every hit on it; nil for
	// results that were not stored, and for an empty fragment.
	frag []byte
}

// ErrClosed reports a submission to a Service after Close.
var ErrClosed = errors.New("service: closed")

// ErrInternal reports an evaluation that panicked on its worker. The
// worker recovers — one bad query must not take down the pool — and
// replaces its backend clone, whose private working state the panic
// may have corrupted.
var ErrInternal = errors.New("service: internal error")

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Workers and QueueCap echo the configuration; QueueLen is the
	// number of requests currently waiting.
	Workers, QueueCap, QueueLen int
	// Requests counts submissions (batch items count individually);
	// Batches counts Batch calls.
	Requests, Batches int64
	// Inflight is the number of requests being evaluated right now.
	Inflight int64
	// Completed counts requests that finished evaluation (hits are not
	// evaluated and counted under Hits instead).
	Completed int64
	// Hits and Misses count result-cache outcomes of cacheable
	// requests.
	Hits, Misses int64
	// Timeouts counts evaluations cut short by a deadline; Cancelled
	// counts requests abandoned by a deadline-less context (client
	// disconnects); Errors counts evaluations failing otherwise (bad
	// expressions included); Rejected counts submissions whose context
	// fired while the queue was full.
	Timeouts, Cancelled, Errors, Rejected int64
	// Panics counts evaluations that panicked on a worker (recovered;
	// the request failed with ErrInternal and the worker re-cloned its
	// backend).
	Panics int64
	// Updates counts applied update batches; QueueWaitNS accumulates
	// the time evaluated requests spent queued — wait that counts
	// against their deadlines, which are anchored at submission.
	Updates     int64
	QueueWaitNS int64
	// ExprHits/ExprMisses/ExprEntries describe the compiled-expression
	// cache.
	ExprHits, ExprMisses int64
	ExprEntries          int
	// PatternHits/PatternMisses/PatternEntries describe the compiled
	// graph-pattern cache.
	PatternHits, PatternMisses int64
	PatternEntries             int
	// ResultEntries/ResultBytes/ResultEvictions describe the result
	// cache; ResultBytes covers each entry's strings and its encoded
	// response body, charged in full when the entry is stored.
	// ResultInvalidations counts entries dropped because the data
	// version moved past them (evictions are the LRU's alone).
	ResultEntries       int
	ResultBytes         int64
	ResultEvictions     int64
	ResultInvalidations int64
	// SlowQueries counts requests that crossed the slow-query threshold
	// (0 when the slow-query log is disabled).
	SlowQueries int64
	// Latency summarizes end-to-end request durations (queue wait +
	// evaluation, measured at the worker) and EvalLatency the
	// evaluation-only portion; both come from lock-free log-bucketed
	// histograms, so p50/p95/p99 are available without a Prometheus
	// scrape.
	Latency     LatencySummary
	EvalLatency LatencySummary
	// Standing describes the backend's standing queries and WAL its
	// durability layer (Enabled false without a write-ahead log).
	Standing standing.Stats
	WAL      WALStats
	// GC is the pace of the process's garbage collector.
	GC GCStats
}

// GCStats reads the garbage collector's pace from runtime/metrics: the
// cycles completed, the CPU time they took (the runtime's estimate),
// the heap the last cycle left live and the soft memory limit
// (math.MaxInt64 while none is set).
type GCStats struct {
	Cycles           int64
	CPUSeconds       float64
	HeapLiveBytes    int64
	MemoryLimitBytes int64
}

var gcMetrics = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/gc/gomemlimit:bytes",
}

func readGCStats() GCStats {
	var samples [len(gcMetrics)]metrics.Sample
	for i, name := range gcMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	count := func(i int) int64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(samples[i].Value.Uint64())
	}
	var cpu float64
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		cpu = samples[1].Value.Float64()
	}
	return GCStats{Cycles: count(0), CPUSeconds: cpu, HeapLiveBytes: count(2), MemoryLimitBytes: count(3)}
}

// LatencySummary condenses one latency histogram for /stats.
type LatencySummary struct {
	Count  int64
	P50MS  float64
	P90MS  float64
	P95MS  float64
	P99MS  float64
	MaxMS  float64
	MeanMS float64
}

func summarize(s obs.HistSnapshot) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  int64(s.Count),
		P50MS:  ms(s.Quantile(0.50)),
		P90MS:  ms(s.Quantile(0.90)),
		P95MS:  ms(s.Quantile(0.95)),
		P99MS:  ms(s.Quantile(0.99)),
		MaxMS:  ms(time.Duration(s.Max)),
		MeanMS: ms(s.Mean()),
	}
}

// WALStats describes a backend's durability layer (ringrpq.WALStats
// is this type); the zero value, Enabled false, means the backend has
// no write-ahead log.
type WALStats struct {
	Enabled     bool
	Dir         string
	FsyncPolicy string
	// Appended / AppendedBytes / Fsyncs count this process's log writes;
	// Replayed and TornBytes describe the recovery that opened it.
	Appended      int64
	AppendedBytes int64
	Fsyncs        int64
	Replayed      int64
	TornBytes     int64
	Segments      int
	SizeBytes     int64
	// Checkpoints / CheckpointErrors count compaction checkpoints this
	// process; LastCheckpointVersion is the newest durable checkpoint's
	// data version (log segments at or before it are dropped), and
	// LastCheckpointMS what the last one took.
	Checkpoints           int64
	CheckpointErrors      int64
	LastCheckpointVersion uint64
	LastCheckpointMS      float64
	// Wedged reports a latched log I/O failure: appends are refused and
	// the daemon should fail its readiness probe. WedgeReason carries
	// the latched error text.
	Wedged      bool
	WedgeReason string
}

// Service is the concurrent query front-end over an immutable index.
// All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	queue chan *job

	// src is the backend the service was built over: updates, data
	// versions, subscriptions and stats go to it directly (all safe for
	// concurrent use by contract), never through the worker clones.
	src Backend

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool
	wg     sync.WaitGroup

	exprs    *canonCache[pathexpr.Node]
	patterns *canonCache[*query.Query]

	// subs tracks standing-query subscriptions registered through this
	// service, so Close terminates them (see subscribe.go).
	subsMu     sync.Mutex
	subs       map[uint64]*standing.Sub
	subsClosed bool

	// results holds Results computed at data version resVersion and no
	// other: the version only advances, so the first submission to see
	// a newer one drops everything older, and a job that finishes
	// behind it is not stored.
	resMu         sync.Mutex
	results       *lruCache
	resVersion    uint64
	invalidations int64

	// slow is the bounded slow-query ring (nil when disabled); latE2E
	// and latEval are the end-to-end and evaluation-only latency
	// histograms, fed at the workers. metrics renders all of it (plus
	// every Stats field) as Prometheus text for GET /metrics.
	slow    *obs.SlowLog
	latE2E  obs.Histogram
	latEval obs.Histogram
	metrics obs.Registry

	requests  atomic.Int64
	updates   atomic.Int64
	queueWait atomic.Int64
	batches   atomic.Int64
	inflight  atomic.Int64
	completed atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	timeouts  atomic.Int64
	cancelled atomic.Int64
	errs      atomic.Int64
	rejected  atomic.Int64
	panics    atomic.Int64
}

type job struct {
	ctx     context.Context
	req     Request
	node    pathexpr.Node // 2RPQ requests
	pattern *query.Query  // pattern requests
	key     string        // result-cache key; "" = uncacheable
	version uint64        // data version observed at submission
	// cancel releases ctx's deadline timer once the job is answered
	// (nil when submit added no deadline).
	cancel   context.CancelFunc
	enqueued time.Time
	done     chan Result

	// trace is non-nil for profiled jobs; root is the index of the
	// service-created request span (-1 when the caller owns the root,
	// e.g. the HTTP handler, which closes it after serialization).
	trace *obs.Trace
	root  int
	// wait and evalDur are filled at the worker for the latency
	// histograms and the slow-query log.
	wait    time.Duration
	evalDur time.Duration
}

// New starts a Service over backend. The backend itself is only used as
// a clone source; the caller may keep using it single-threadedly.
func New(backend Backend, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		src:      backend,
		queue:    make(chan *job, cfg.QueueDepth),
		exprs:    newExprCache(query.MemoEntries),
		patterns: newPatternCache(query.MemoEntries),
		results:  newLRUCache(cfg.ResultCacheEntries, cfg.ResultCacheBytes),
		slow:     obs.NewSlowLog(cfg.SlowQueryThreshold, cfg.SlowLogCapacity, slog.Default()),
	}
	s.registerMetrics()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(backend.Clone())
	}
	return s
}

// Query evaluates one request and returns its materialised result set.
func (s *Service) Query(ctx context.Context, req Request) Result {
	req.Count = false
	return s.do(ctx, req)
}

// Count evaluates one request returning only the solution count.
func (s *Service) Count(ctx context.Context, req Request) Result {
	req.Count = true
	return s.do(ctx, req)
}

// Select evaluates one graph-pattern request (req.Pattern) through the
// pool, returning the projected result table in Result.Vars/Rows.
func (s *Service) Select(ctx context.Context, req Request) Result {
	if req.Pattern == "" {
		return Result{Err: errors.New("service: Select needs a Pattern")}
	}
	return s.do(ctx, req)
}

// Batch evaluates requests concurrently across the pool and returns one
// Result per request, in order. Cache hits return without queueing; the
// rest share the pool with every other client.
func (s *Service) Batch(ctx context.Context, reqs []Request) []Result {
	s.batches.Add(1)
	out := make([]Result, len(reqs))
	waiting := make([]chan Result, len(reqs))
	for i, req := range reqs {
		res, ch := s.submit(ctx, req)
		if ch == nil {
			out[i] = res
		} else {
			waiting[i] = ch
		}
	}
	for i, ch := range waiting {
		if ch != nil {
			out[i] = <-ch
		}
	}
	return out
}

// do runs one request to completion.
func (s *Service) do(ctx context.Context, req Request) Result {
	res, ch := s.submit(ctx, req)
	if ch == nil {
		return res
	}
	// The worker always sends exactly one Result, even after Close
	// (the queue is drained, not dropped), so this cannot leak.
	return <-ch
}

// submit resolves the request against the caches and either returns a
// finished Result (ch == nil) or enqueues a job whose Result will
// arrive on ch.
func (s *Service) submit(ctx context.Context, req Request) (Result, chan Result) {
	s.requests.Add(1)
	// Fail fast after Close even for requests the result cache could
	// serve, so post-Close behavior is uniform (always ErrClosed).
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return Result{Err: ErrClosed}, nil
	}
	// Normalise before the cache key is formed: a negative limit would
	// otherwise reach the engine as "stop after the first solution"
	// and be cached as a complete result.
	if req.Limit < 0 {
		req.Limit = 0
	}
	if req.Timeout < 0 {
		req.Timeout = 0
	}
	// A profiled request records into the trace attached to ctx (the
	// HTTP handler's, which owns the root span) or, absent one, into a
	// fresh trace whose root span the worker closes.
	tr := obs.FromContext(ctx)
	root := -1
	if tr == nil && req.Profile {
		tr = obs.New()
		root = tr.Begin(obs.SpanRequest)
		ctx = obs.NewContext(ctx, tr)
	}
	var (
		node  pathexpr.Node
		pat   *query.Query
		canon string
		err   error
	)
	if req.Pattern != "" {
		csp := tr.Begin(obs.SpanCompile)
		canon, pat, err = s.patterns.Compile(req.Pattern)
		tr.End(csp)
	} else {
		csp := tr.Begin(obs.SpanCompile)
		canon, node, err = s.exprs.Compile(req.Expr)
		tr.End(csp)
	}
	if err != nil {
		s.errs.Add(1)
		return Result{Err: err}, nil
	}

	version := s.src.DataVersion()
	var key string
	if s.results.enabled() {
		key = cacheKey(req, canon)
		rsp := tr.Begin(obs.SpanResultCache)
		if res, ok := s.cached(key, version); ok {
			tr.EndVals(rsp, 1)
			tr.End(root)
			s.hits.Add(1)
			res.Cached = true
			res.Trace = tr
			return res, nil
		}
		tr.EndVals(rsp, 0)
		s.misses.Add(1)
	}

	j := &job{ctx: ctx, req: req, node: node, pattern: pat, key: key, version: version, done: make(chan Result, 1), trace: tr, root: root}
	j.enqueued = time.Now()
	// The request's timeout becomes its context's deadline, anchored
	// now: time spent queued counts against the budget, so a request
	// that waited out its timeout evaluates to an immediate (empty,
	// truncated) result instead of getting a fresh budget. An earlier
	// deadline of the caller's context stays in force.
	t := req.Timeout
	if t <= 0 {
		t = s.cfg.DefaultTimeout
	}
	if t > 0 {
		j.ctx, j.cancel = context.WithDeadline(ctx, j.enqueued.Add(t))
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		j.release()
		return Result{Err: ErrClosed}, nil
	}
	//lint:ignore locksend the closed-check and enqueue must be atomic vs Close (which takes the write lock); the ctx case bounds the wait
	select {
	case s.queue <- j:
		s.mu.RUnlock()
		return Result{}, j.done
	case <-ctx.Done():
		s.mu.RUnlock()
		j.release()
		s.rejected.Add(1)
		return Result{Err: ctx.Err()}, nil
	}
}

// release stops the deadline timer submit started for j, if any.
func (j *job) release() {
	if j.cancel != nil {
		j.cancel()
	}
}

// cached looks key up among the results computed at data version
// version, first dropping what a newer version has made unreachable.
func (s *Service) cached(key string, version uint64) (Result, bool) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if version > s.resVersion {
		s.invalidations += int64(s.results.Clear())
		s.resVersion = version
	}
	if version < s.resVersion {
		// Read before an update that another submission has already
		// seen: nothing stored is as old as this request.
		return Result{}, false
	}
	v, ok := s.results.Get(key)
	if !ok {
		return Result{}, false
	}
	return v.(Result), true
}

// cacheKey identifies a request by its canonicalised expression and
// every parameter that can change the result set. Components are
// length-prefixed so endpoint names containing any byte (including
// the separator) cannot make distinct requests collide.
func cacheKey(req Request, canon string) string {
	var buf [128]byte
	k := append(buf[:0], 'q')
	if req.Pattern != "" {
		k[0] = 's'
	}
	if req.Count {
		k = append(k, 'c')
	}
	parts := [...]string{req.Subject, canon, req.Object}
	if req.Pattern != "" {
		parts = [...]string{"", canon, ""}
	}
	for _, part := range parts {
		k = strconv.AppendInt(k, int64(len(part)), 10)
		k = append(k, ':')
		k = append(k, part...)
	}
	k = append(k, '|')
	k = strconv.AppendInt(k, int64(req.Limit), 10)
	return string(k)
}

// worker owns one Backend clone and drains the queue until Close:
// runSafe → run → finish is the one route a queued job takes.
func (s *Service) worker(b Backend) {
	defer s.wg.Done()
	var a answer
	for j := range s.queue {
		if b == nil {
			// The previous job panicked mid-evaluation; its clone's
			// private working state is suspect, so start a fresh one.
			b = s.src.Clone()
		}
		res, ok := s.runSafe(b, j, &a)
		j.release()
		if !ok {
			b, a = nil, answer{}
		}
		s.finish(j, &res)
		j.done <- res
	}
}

// finish stamps end-to-end telemetry for one answered job: the latency
// histograms, the slow-query log, and the job's trace (closing the
// service-owned root span and attaching the trace to the result so the
// caller can render it). Cache hits never reach here — submit answers
// them directly.
func (s *Service) finish(j *job, res *Result) {
	total := time.Since(j.enqueued)
	s.latE2E.Observe(total)
	if j.evalDur > 0 {
		s.latEval.Observe(j.evalDur)
	}
	if s.slow != nil && total >= s.slow.Threshold() {
		s.recordSlow(j, res, total)
	}
	if j.trace != nil {
		j.trace.End(j.root)
		res.Trace = j.trace
	}
}

// recordSlow files one slow-query log entry for an answered job.
func (s *Service) recordSlow(j *job, res *Result, total time.Duration) {
	timedOut := errors.Is(res.Err, core.ErrTimeout)
	e := obs.SlowEntry{
		Time:      time.Now(),
		Subject:   j.req.Subject,
		Object:    j.req.Object,
		Expr:      j.req.Expr,
		Pattern:   j.req.Pattern,
		Total:     total,
		QueueWait: j.wait,
		Eval:      j.evalDur,
		Results:   res.N,
		Truncated: timedOut,
		TimedOut:  timedOut,
	}
	switch {
	case j.req.Pattern != "":
		e.Kind = "select"
	case j.req.Count:
		e.Kind = "count"
	default:
		e.Kind = "query"
	}
	if res.Err != nil {
		e.Err = res.Err.Error()
	}
	s.slow.Record(e)
}

// runSafe evaluates one job, converting a panic into an ErrInternal
// result; ok is false when the worker's clone must be replaced.
func (s *Service) runSafe(b Backend, j *job, a *answer) (res Result, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.errs.Add(1)
			res = Result{Err: fmt.Errorf("%w: %v", ErrInternal, p)}
			ok = false
		}
	}()
	return s.run(b, j, a), true
}

// answer is a worker's scratch for the result it is assembling: the
// solutions or rows an evaluation emits, and the fragment store
// encodes. A Result gets exact-size copies of them, so the worker grows
// one set of buffers instead of one per answer, and a stored answer
// holds no spare capacity.
type answer struct {
	sols []Solution
	rows [][]string
	frag []byte
}

// maxScratch bounds the solutions or rows a worker keeps between
// answers (32 768, 1 MiB of solutions); its fragment scratch is bounded
// as a pooled body is (maxPooledBody). An outsized answer (a v→v
// closure can run to millions of solutions) leaves nothing behind.
const maxScratch = 1 << 15

// take hands the collected solutions and rows to res as exact-size
// copies (nil for none) and clears the scratch, which then keeps no
// name alive.
func (a *answer) take(res *Result) {
	res.Solutions, a.sols = exactCopy(a.sols), reuse(a.sols, maxScratch)
	res.Rows, a.rows = exactCopy(a.rows), reuse(a.rows, maxScratch)
}

// exactCopy returns xs in a new slice of exactly its length, nil when
// empty.
func exactCopy[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	out := make([]T, len(xs))
	copy(out, xs)
	return out
}

// reuse empties xs for the next answer, or drops it past max elements.
func reuse[T any](xs []T, max int) []T {
	clear(xs)
	if cap(xs) > max {
		return nil
	}
	return xs[:0]
}

// run evaluates one job on worker backend b: a 2RPQ through Eval,
// collecting Solutions, a graph pattern through EvalPattern, collecting
// Rows, both into the worker's scratch a.
func (s *Service) run(b Backend, j *job, a *answer) Result {
	// Only a cancellation ends the job here. A deadline that passed in
	// the queue is the timeout below, as the request's own budget is.
	if err := j.ctx.Err(); errors.Is(err, context.Canceled) {
		s.cancelled.Add(1)
		return Result{Err: err}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.completed.Add(1)
	now := time.Now()
	j.wait = now.Sub(j.enqueued)
	s.queueWait.Add(j.wait.Nanoseconds())
	j.trace.Add(obs.SpanQueueWait, j.enqueued)
	if dl, ok := j.ctx.Deadline(); ok && !now.Before(dl) {
		// The queue wait consumed the whole budget: an empty truncated
		// result, exactly as if evaluation had started and timed out
		// immediately.
		s.timeouts.Add(1)
		return Result{Err: core.ErrTimeout}
	}

	var res Result
	var eval func() error
	if j.pattern == nil {
		eval = func() error {
			return b.Eval(j.ctx, j.req.Subject, j.node, j.req.Object, j.req.Limit, func(sol Solution) bool {
				res.N++
				if !j.req.Count {
					a.sols = append(a.sols, sol)
				}
				return true
			})
		}
	} else {
		res.Vars = j.pattern.OutVars()
		eval = func() error {
			return b.EvalPattern(j.ctx, j.pattern, j.req.Limit, func(row []string) bool {
				res.N++
				if !j.req.Count {
					a.rows = append(a.rows, row)
				}
				return true
			})
		}
	}

	esp, evalStart := j.trace.Begin(obs.SpanEval), time.Now()
	res.Err = eval()
	j.evalDur = time.Since(evalStart)
	j.trace.EndVals(esp, int64(res.N))
	a.take(&res)
	switch {
	case errors.Is(res.Err, core.ErrTimeout):
		s.timeouts.Add(1)
	case errors.Is(res.Err, context.Canceled):
		s.cancelled.Add(1)
	case res.Err != nil:
		s.errs.Add(1)
	default:
		s.store(j, &res, a)
	}
	return res
}

// store records a complete result in the result cache, charged for
// its strings and its encoded fragment. The fragment is encoded here,
// on the worker, into the scratch a, and the entry keeps one copy of
// exactly its length (res.frag, shared with every hit), so the charge
// is final when the entry is stored and no response encodes it again.
// An in-process caller that never renders a stored result therefore
// pays one encode for it.
func (s *Service) store(j *job, res *Result, a *answer) {
	if j.key == "" {
		return
	}
	a.frag = appendFragment(a.frag[:0], res, j.req.Pattern != "")
	res.frag = exactCopy(a.frag)
	if cap(a.frag) > maxPooledBody {
		a.frag = nil
	}
	cost := int64(64 + len(res.frag))
	for _, sol := range res.Solutions {
		cost += int64(len(sol.Subject)+len(sol.Object)) + 32
	}
	for _, v := range res.Vars {
		cost += int64(len(v)) + 16
	}
	for _, row := range res.Rows {
		cost += 24
		for _, v := range row {
			cost += int64(len(v)) + 16
		}
	}
	s.resMu.Lock()
	if j.version == s.resVersion {
		s.results.Add(j.key, *res, cost)
	}
	s.resMu.Unlock()
}

// Update applies one live-update batch (adds then dels) through the
// backend's snapshot holder. It does not occupy a worker: updates and
// queries proceed concurrently, and queries started before the update
// finish on the snapshot they pinned.
func (s *Service) Update(ctx context.Context, adds, dels []UpdateTriple) (UpdateResult, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return UpdateResult{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return UpdateResult{}, err
	}
	res, err := s.src.ApplyUpdates(ctx, adds, dels)
	if err == nil {
		s.updates.Add(1)
	}
	return res, err
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st, _ := s.stats()
	return st
}

// stats snapshots the service counters and the backend's "index"
// block, reading the backend once.
func (s *Service) stats() (Stats, any) {
	exprHits, exprMisses := s.exprs.Counters()
	patHits, patMisses := s.patterns.Counters()
	s.resMu.Lock()
	rEntries, rBytes, rEvict, rInval := s.results.Len(), s.results.Bytes(), s.results.Evictions(), s.invalidations
	s.resMu.Unlock()
	st, wal, index := s.src.BackendStats()
	return Stats{
		Workers:             s.cfg.Workers,
		QueueCap:            s.cfg.QueueDepth,
		QueueLen:            len(s.queue),
		Requests:            s.requests.Load(),
		Batches:             s.batches.Load(),
		Inflight:            s.inflight.Load(),
		Completed:           s.completed.Load(),
		Hits:                s.hits.Load(),
		Misses:              s.misses.Load(),
		Timeouts:            s.timeouts.Load(),
		Cancelled:           s.cancelled.Load(),
		Errors:              s.errs.Load(),
		Rejected:            s.rejected.Load(),
		Panics:              s.panics.Load(),
		Updates:             s.updates.Load(),
		QueueWaitNS:         s.queueWait.Load(),
		ExprHits:            exprHits,
		ExprMisses:          exprMisses,
		ExprEntries:         s.exprs.Len(),
		PatternHits:         patHits,
		PatternMisses:       patMisses,
		PatternEntries:      s.patterns.Len(),
		ResultEntries:       rEntries,
		ResultBytes:         rBytes,
		ResultEvictions:     rEvict,
		ResultInvalidations: rInval,
		Standing:            st,
		WAL:                 wal,
		GC:                  readGCStats(),
		SlowQueries:         int64(s.slow.Total()),
		Latency:             summarize(s.latE2E.Snapshot()),
		EvalLatency:         summarize(s.latEval.Snapshot()),
	}, index
}

// SlowLog returns the service's slow-query log, nil when disabled
// (Config.SlowQueryThreshold unset).
func (s *Service) SlowLog() *obs.SlowLog { return s.slow }

// Closed reports whether Close has begun; the readiness endpoint uses
// it to fail fast during shutdown.
func (s *Service) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close stops accepting requests, drains the queue (queued jobs still
// run to completion), waits for the workers to exit and terminates
// every tracked standing-query subscription — blocked SSE/long-poll
// consumers unblock with a terminal error rather than leak. Close is
// idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.closeSubscriptions()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	s.closeSubscriptions()
	return nil
}
