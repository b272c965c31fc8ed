// Package ringrpq is a time- and space-efficient regular path query
// (RPQ) engine for labeled graphs, reproducing "Time- and Space-Efficient
// Regular Path Queries on Graphs" (Arroyuelo, Hogan, Navarro,
// Rojas-Ledesma; arXiv:2111.04556).
//
// The graph is stored as a ring — a Burrows-Wheeler-transform style
// succinct index of its triples represented with wavelet trees — in about
// twice the space of a packed triple table, and 2RPQs (regular path
// queries with inverses) are evaluated directly on it by a backward
// traversal of only the query-relevant part of the product graph, driven
// by a bit-parallel Glushkov automaton.
//
// Quickstart:
//
//	b := ringrpq.NewBuilder()
//	b.Add("Baquedano", "l1", "UCh")
//	b.Add("UCh", "l1", "LosHeroes")
//	db, err := b.Build()
//	...
//	sols, err := db.Query(ctx, "Baquedano", "(l1|l2|l5)+", "?station")
//
// Endpoints starting with '?' are variables; anything else must name a
// node. Expressions support predicates, inverses (^p), concatenation
// (p1/p2), alternation (p1|p2), closures (p*, p+) and optionals (p?).
//
// Beyond single 2RPQs, multi-clause graph patterns mix triple patterns
// with RPQ clauses and are evaluated by a selectivity-planned Leapfrog
// Triejoin pipelined with bound-endpoint RPQ steps (the §6 extension):
//
//	vars, rows, err := db.Select(ctx,
//		"SELECT ?x ?y WHERE { ?x advisor/advisor* ?y . ?y country Q30 }")
//
// See Select and the README's "Graph patterns" section.
//
// A DB's query methods share working arrays and must not be called
// concurrently. For concurrent serving, wrap the database in a Service
// — a worker pool over the shared immutable index with a
// canonicalising compiled-query cache, an LRU result cache, batch
// evaluation and per-request deadlines (see ExampleService):
//
//	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{Workers: 8})
//	defer svc.Close()
//	sols, err := svc.Query(ctx, "Baquedano", "(l1|l2|l5)+", "?station")
//
// The index also accepts live updates: Apply folds triples into an
// in-memory overlay that every query unions in transparently, and a
// background compactor merges the overlay into the ring and swaps the
// snapshot atomically — in-flight queries finish on the snapshot they
// started with (see Apply, Flush and the README's "Live updates"
// section).
//
// Command rpqd serves the same API over HTTP, including POST /update.
package ringrpq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ringrpq/internal/bitvec"
	"ringrpq/internal/core"
	"ringrpq/internal/obs"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/service"
	"ringrpq/internal/standing"
	"ringrpq/internal/triples"
)

// Builder accumulates triples before indexing.
type Builder struct {
	b *triples.Builder
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{b: triples.NewBuilder()}
}

// Add inserts the edge s --p--> o. Duplicate edges collapse.
func (b *Builder) Add(s, p, o string) { b.b.Add(s, p, o) }

// Load reads whitespace-separated "s p o" triples (optionally with
// <IRI> tokens, comments and N-Triples dots) from r.
func (b *Builder) Load(r io.Reader) error { return triples.Load(r, b.b) }

// Build completes the graph with inverse edges, numbers the nodes for
// locality (triples.Graph.NumberByLocality: a breadth-first search from
// the hubs in decreasing degree gives the nodes one step reaches
// consecutive ids, so a frontier's L_s descents share wavelet nodes),
// constructs the ring index, and returns a queryable database. The
// numbering is a function of the input, so two builds of the same
// triples save the same bytes; a loaded, recovered or compacted
// database keeps the ids it has. A database holds fewer than 2^32
// completed triples (each edge counts twice, as itself and its
// inverse). The builder must not be used afterwards.
func (b *Builder) Build() (*DB, error) {
	g := b.b.Build()
	if g.Len() == 0 {
		return nil, errors.New("ringrpq: empty graph")
	}
	if err := bitvec.CheckLen(g.Len()); err != nil {
		return nil, fmt.Errorf("ringrpq: %d completed triples: %w", g.Len(), err)
	}
	g.NumberByLocality()
	r := ring.FromTriples(g.Triples, g.NumNodes(), g.NumCompletedPreds())
	// The ring took the triples over as sorting space; like a loaded
	// graph, a built one keeps none.
	g.Triples = nil
	return newDB(g, r), nil
}

// newDB assembles a DB around a freshly built or loaded ring.
func newDB(g *triples.Graph, r *ring.Ring) *DB {
	return &DB{g: g, h: newHolder(r, g.NumNodes())}
}

// DB is an RPQ-queryable graph database. Its query methods share
// working arrays and must not be called concurrently; use Clone for
// parallel workers. An evaluation runs on its caller's goroutine.
//
// The index is no longer frozen after Build: Apply folds live updates
// into an in-memory overlay that every query unions in, and a
// background compactor periodically merges it into the static ring and
// swaps the snapshot atomically (see Apply, Flush and the README's "Live
// updates" section). Updates are safe from any goroutine; each
// query evaluates against the one snapshot it pinned at entry.
type DB struct {
	g *triples.Graph
	// h publishes the current (static index, overlay) snapshot, shared
	// with every clone.
	h *holder

	// Per-clone evaluation state, rebuilt when the pinned snapshot's
	// epoch moves past it (one-caller rule applies): one kernel, which
	// gets the snapshot's overlay attached before every evaluation, and
	// the pattern executor.
	epoch    uint64
	eng      *core.Engine
	pat      *query.Exec
	patEpoch uint64
}

// predIDs resolves predicate occurrences of query expressions against
// the graph dictionaries.
func (db *DB) predIDs() func(s pathexpr.Sym) (uint32, bool) {
	return func(s pathexpr.Sym) (uint32, bool) {
		return db.g.PredID(s.Name, s.Inverse)
	}
}

// Clone returns a DB sharing the index (and the live snapshot state:
// updates applied through any clone are visible to all) but with its
// own query working arrays, safe to use from another goroutine.
func (db *DB) Clone() *DB {
	return &DB{g: db.g, h: db.h}
}

// evaluatorFor returns this clone's kernel with the pinned snapshot's
// overlay attached; the kernel decides per query whether the overlay
// matters. It is rebuilt when a compaction has swapped the snapshot
// since it was built.
func (db *DB) evaluatorFor(snap *snapshot) *core.Engine {
	if db.eng == nil || db.epoch != snap.epoch {
		db.epoch = snap.epoch
		db.eng = core.NewEngine(snap.r, db.predIDs())
	}
	db.eng.SetDelta(snap.ov, snap.numNodes)
	return db.eng
}

// Solution is one result mapping of a query: Subject and Object name
// the path's endpoints.
type Solution = service.Solution

// QueryOption tunes one query.
type QueryOption func(*core.Options)

// WithLimit caps the number of solutions; n ≤ 0 means no cap.
func WithLimit(n int) QueryOption {
	return func(o *core.Options) { o.Limit = n }
}

// WithTimeout bounds evaluation wall-clock time; exceeding it returns
// ErrTimeout along with the solutions found so far. A deadline on the
// call's context does the same, and the earlier of the two applies.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *core.Options) { o.Timeout = d }
}

// options folds QueryOptions into a core.Options value. A negative
// limit is no cap, as 0 is.
func options(opts []QueryOption) core.Options {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	o.Limit = max(o.Limit, 0)
	return o
}

// ErrTimeout reports that a query exceeded its timeout.
var ErrTimeout = core.ErrTimeout

// ParseExpr validates a path expression, returning a descriptive error
// for malformed input.
func ParseExpr(expr string) error {
	_, err := pathexpr.Parse(expr)
	return err
}

// Query evaluates the 2RPQ (subject, expr, object) and returns all
// solutions. Endpoints beginning with '?' are variables; constant
// endpoint names that do not occur in the graph yield no solutions.
// ctx may carry an obs.Trace and a deadline; a deadline, like
// WithTimeout, returns ErrTimeout with the solutions found so far, and
// a cancelled ctx stops the evaluation at the next solution with
// ctx.Err().
func (db *DB) Query(ctx context.Context, subject, expr, object string, opts ...QueryOption) ([]Solution, error) {
	var out []Solution
	err := db.QueryFunc(ctx, subject, expr, object, func(s Solution) bool {
		out = append(out, s)
		return true
	}, opts...)
	return out, err
}

// QueryFunc is Query with streaming delivery: emit receives each
// solution and may return false to stop early.
func (db *DB) QueryFunc(ctx context.Context, subject, expr, object string, emit func(Solution) bool, opts ...QueryOption) error {
	node, err := pathexpr.Parse(expr)
	if err != nil {
		return err
	}
	return watch(ctx, func(live func() bool) error {
		return db.queryNode(ctx, subject, node, object, options(opts), func(s Solution) bool {
			return live() && emit(s)
		})
	})
}

// watch runs one DB read whose emit callback checks live() before each
// result: once ctx is done, live reports false and stops the
// evaluation, and watch returns ctx's error in place of the
// evaluation's (ErrTimeout for a passed deadline, as the engine reports
// its own deadline). The service path does not come through here: its
// workers poll the request context themselves.
func watch(ctx context.Context, eval func(live func() bool) error) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	done := ctx.Done()
	if done == nil {
		return eval(func() bool { return true })
	}
	stopped := false
	err := eval(func() bool {
		select {
		case <-done:
			stopped = true
			return false
		default:
			return true
		}
	})
	if stopped {
		return ctxErr(ctx)
	}
	return err
}

// ctxErr is ctx.Err() with a passed deadline reported as ErrTimeout.
func ctxErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return err
}

// queryNode is QueryFunc over a pre-parsed expression (the entry point
// used by Service workers, which share parsed ASTs across requests).
// ctx reaches the engine (core.FoldContext): it may carry an obs.Trace
// and tighten the evaluation deadline.
func (db *DB) queryNode(ctx context.Context, subject string, node pathexpr.Node, object string, options core.Options, emit func(Solution) bool) error {
	q := core.Query{Subject: core.Variable, Object: core.Variable, Expr: node}
	if !isVariable(subject) {
		id, ok := db.g.Nodes.Lookup(subject)
		if !ok {
			return nil
		}
		q.Subject = int64(id)
	}
	if !isVariable(object) {
		id, ok := db.g.Nodes.Lookup(object)
		if !ok {
			return nil
		}
		q.Object = int64(id)
	}
	snap := db.h.acquire()
	defer db.h.release(snap)
	_, err := db.evaluatorFor(snap).Eval(ctx, q, options, func(s, o uint32) bool {
		return emit(Solution{
			Subject: db.g.Nodes.Name(s),
			Object:  db.g.Nodes.Name(o),
		})
	})
	return err
}

// Count returns the number of solutions without materialising them.
func (db *DB) Count(ctx context.Context, subject, expr, object string, opts ...QueryOption) (int, error) {
	n := 0
	err := db.QueryFunc(ctx, subject, expr, object, func(Solution) bool {
		n++
		return true
	}, opts...)
	return n, err
}

func isVariable(endpoint string) bool {
	return strings.HasPrefix(endpoint, "?")
}

// Stats is one snapshot of a database: its static index, its live
// updates, its write-ahead log and its standing queries. It is what GET
// /stats renders under "index" (see Service.Handler), so the JSON names
// of its blocks are part of that response's shape.
type Stats struct {
	Index   IndexStats  `json:"index"`
	Updates UpdateStats `json:"updates"`
	// WAL is zero, and left out of the JSON form, unless the database
	// was opened with OpenDurable.
	WAL      WALStats      `json:"durability,omitzero"`
	Standing StandingStats `json:"standing"`
}

// IndexStats summarises the static index. The space measure of the
// paper's Table 2, bytes per completed edge, is
// IndexBytes / CompletedEdges.
type IndexStats struct {
	// Nodes is |V|.
	Nodes int
	// Edges is the original (pre-completion) edge count.
	Edges int
	// CompletedEdges counts edges after adding inverses (2·Edges).
	CompletedEdges int
	// Predicates is the original predicate count |P|.
	Predicates int
	// IndexBytes is the ring footprint used by queries: L_s and L_p
	// with their rank directories and symbol counts, plus L_o's symbol
	// counts, each allocation counted once. The dictionaries and L_o's
	// bits are not included.
	IndexBytes int
}

// Stats reports database statistics. Safe for concurrent use.
func (db *DB) Stats() Stats {
	return Stats{
		Index:    db.indexStats(),
		Updates:  db.updateStats(),
		WAL:      db.walStats(),
		Standing: db.standingStats(),
	}
}

// indexStats counts the static index; the overlay's pending adds are
// not included (see UpdateStats). The ring's N is used rather than the
// builder's triple list so the counts survive Save/LoadDB.
func (db *DB) indexStats() IndexStats {
	r := db.h.cur.Load().r
	return IndexStats{
		Nodes:          db.g.NumNodes(),
		Edges:          r.N / 2,
		CompletedEdges: r.N,
		Predicates:     int(db.g.NumPreds),
		IndexBytes:     r.QuerySizeBytes(),
	}
}

// Nodes lists all node names (insertion order).
func (db *DB) Nodes() []string {
	out := make([]string, db.g.NumNodes())
	for i := range out {
		out[i] = db.g.Nodes.Name(uint32(i))
	}
	return out
}

// Predicates lists the original predicate names.
func (db *DB) Predicates() []string {
	out := make([]string, db.g.NumPreds)
	for i := range out {
		out[i] = db.g.Preds.Name(uint32(i))
	}
	return out
}

// String renders a brief description.
func (db *DB) String() string {
	s := db.indexStats()
	return fmt.Sprintf("ringrpq.DB{%d nodes, %d edges, %d predicates, %.2f B/edge}",
		s.Nodes, s.Edges, s.Predicates, float64(s.IndexBytes)/float64(s.CompletedEdges))
}

// ServiceConfig tunes a Service; the zero value picks sensible
// defaults (GOMAXPROCS workers, 4×workers queue depth, 1024-entry
// expression cache, 4096-entry / 64 MiB result cache). The graph-pattern
// cache takes its bound from ExprCacheEntries too. Negative cache sizes
// disable the corresponding cache.
type ServiceConfig = service.Config

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = service.Stats

// Request is one query submission to a Service (used directly by
// Batch; Query, Count and Select build it from their arguments).
type Request = service.Request

// Result is the outcome of one batched Request.
type Result = service.Result

// ErrServiceClosed reports a submission to a Service after Close.
var ErrServiceClosed = service.ErrClosed

// Service is a concurrent query front-end over a DB: a fixed pool of
// workers (each with its own DB clone sharing the immutable index), a
// bounded request queue, a canonicalising compiled-query cache and an
// LRU result cache. All methods are safe for concurrent use; see
// NewService.
type Service struct {
	s *service.Service
}

// NewService starts a query service over db. The db may still be used
// directly (single-threadedly) by the caller; workers evaluate on
// clones. Close the service to release its workers.
func NewService(db *DB, cfg ServiceConfig) *Service {
	return &Service{s: service.New(dbBackend{db}, cfg)}
}

// dbBackend is the service.Backend of a Service over a DB. Clone, Eval
// and EvalPattern run on a worker's own DB clone; the other methods go
// to the shared snapshot holder, standing-query registry and
// write-ahead log, which are safe for concurrent use.
type dbBackend struct {
	db *DB
}

func (b dbBackend) Clone() service.Backend {
	return dbBackend{db: b.db.Clone()}
}

func (b dbBackend) Eval(ctx context.Context, subject string, node pathexpr.Node, object string, limit int, timeout time.Duration, emit func(Solution) bool) error {
	o := core.Options{Limit: limit, Timeout: timeout}
	return b.db.queryNode(ctx, subject, node, object, o, emit)
}

// EvalPattern evaluates a graph pattern (Select, POST /select).
func (b dbBackend) EvalPattern(ctx context.Context, q *query.Query, limit int, timeout time.Duration, emit func([]string) bool) error {
	o := core.Options{Limit: limit, Timeout: timeout, Trace: obs.FromContext(ctx)}
	snap := b.db.h.acquire()
	defer b.db.h.release(snap)
	return b.db.selectFuncOn(snap, q, o, emit)
}

// ApplyUpdates applies one batch through DB.Apply (POST /update).
func (b dbBackend) ApplyUpdates(ctx context.Context, adds, dels []service.UpdateTriple) (service.UpdateResult, error) {
	conv := func(ts []service.UpdateTriple) []Triple {
		out := make([]Triple, len(ts))
		for i, t := range ts {
			out[i] = Triple{Subject: t.S, Predicate: t.P, Object: t.O}
		}
		return out
	}
	st, err := b.db.Apply(ctx, conv(adds), conv(dels))
	return service.UpdateResult{
		OverlayEdges: st.OverlayEdges,
		Tombstones:   st.Tombstones,
		Epoch:        st.Epoch,
		Version:      st.DataVersion,
		Compacting:   st.Compacting,
	}, err
}

// DataVersion is the DB's data version: the result cache pins entries
// to it, so updates and compaction swaps invalidate them in O(1).
func (b dbBackend) DataVersion() uint64 { return b.db.DataVersion() }

// Subscribe, ResumeSubscription and Unsubscribe go to the DB's
// standing-query registry (GET and DELETE /subscribe).
func (b dbBackend) Subscribe(req standing.Request) (*standing.Sub, error) {
	return b.db.Subscribe(req)
}

func (b dbBackend) ResumeSubscription(id, from uint64) (*standing.Sub, error) {
	return b.db.ResumeSubscription(id, from)
}

func (b dbBackend) Unsubscribe(id uint64) bool { return b.db.Unsubscribe(id) }

// BackendStats reports the DB's Standing and WAL blocks for the
// service's Stats, and the DB's whole Stats as the "index" block of GET
// /stats.
func (b dbBackend) BackendStats() (StandingStats, WALStats, any) {
	st := b.db.Stats()
	return st.Standing, st.WAL, st
}

// WALErr returns the write-ahead log's latched failure (GET /readyz).
func (b dbBackend) WALErr() error {
	if sink := b.db.h.wal.Load(); sink != nil {
		return sink.log.Err()
	}
	return nil
}

// request converts one public call into a service Request, folding
// WithLimit/WithTimeout options into the request parameters.
func request(subject, expr, object string, opts []QueryOption) Request {
	o := options(opts)
	return Request{
		Subject: subject, Expr: expr, Object: object,
		Limit: o.Limit, Timeout: o.Timeout,
	}
}

// Query evaluates one query through the pool, consulting the result
// cache first. The returned slice may be shared with the cache: treat
// it as read-only. The context bounds queueing and evaluation time
// (combined with WithTimeout and the service's default timeout).
func (s *Service) Query(ctx context.Context, subject, expr, object string, opts ...QueryOption) ([]Solution, error) {
	res := s.s.Query(ctx, request(subject, expr, object, opts))
	return res.Solutions, res.Err
}

// Count returns the number of solutions without materialising them.
func (s *Service) Count(ctx context.Context, subject, expr, object string, opts ...QueryOption) (int, error) {
	res := s.s.Count(ctx, request(subject, expr, object, opts))
	return res.N, res.Err
}

// Select evaluates a graph-pattern query through the pool (see
// DB.Select), consulting the result cache first. The returned slices
// may be shared with the cache: treat them as read-only.
func (s *Service) Select(ctx context.Context, pattern string, opts ...QueryOption) (vars []string, rows [][]string, err error) {
	o := options(opts)
	res := s.s.Select(ctx, service.Request{Pattern: pattern, Limit: o.Limit, Timeout: o.Timeout})
	return res.Vars, res.Rows, res.Err
}

// Batch evaluates requests concurrently across the pool, returning one
// Result per request in order. Individual failures (parse errors,
// timeouts) are reported per Result, not as a batch failure.
func (s *Service) Batch(ctx context.Context, reqs []Request) []Result {
	return s.s.Batch(ctx, reqs)
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats { return s.s.Stats() }

// HandlerConfig tunes the HTTP handler returned by Service.Handler.
type HandlerConfig = service.HandlerConfig

// Handler returns an http.Handler exposing the service's JSON API, the
// API that cmd/rpqd serves: queries, patterns, batches, updates,
// subscriptions, stats, probes and metrics (service.NewHandler lists
// every route). GET /stats renders the DB's Stats under "index".
func (s *Service) Handler(cfg HandlerConfig) http.Handler {
	return service.NewHandler(s.s, cfg)
}

// Close stops accepting requests, lets queued and running queries
// finish, releases the workers and ends the subscriptions opened
// through GET /subscribe. Close is idempotent.
func (s *Service) Close() error { return s.s.Close() }

// CloseSubscriptions ends every subscription opened through GET
// /subscribe — streaming and long-poll handlers unblock with a
// terminal error — without stopping the worker pool. Call it at the
// start of a graceful HTTP shutdown, before http.Server.Shutdown: the
// long-lived subscription streams never go idle on their own, so they
// must end before the server can drain its connections. Idempotent;
// Close runs it too.
func (s *Service) CloseSubscriptions() { s.s.CloseSubscriptions() }
