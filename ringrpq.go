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
//	sols, err := db.Query("Baquedano", "(l1|l2|l5)+", "?station")
//
// Endpoints starting with '?' are variables; anything else must name a
// node. Expressions support predicates, inverses (^p), concatenation
// (p1/p2), alternation (p1|p2), closures (p*, p+) and optionals (p?).
//
// Beyond single 2RPQs, multi-clause graph patterns mix triple patterns
// with RPQ clauses and are evaluated by a selectivity-planned Leapfrog
// Triejoin pipelined with bound-endpoint RPQ steps (the §6 extension):
//
//	vars, rows, err := db.Select(
//		"SELECT ?x ?y WHERE { ?x advisor/advisor* ?y . ?y country Q30 }")
//
// See QueryPattern, Select and the README's "Graph patterns" section.
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
// For parallel index construction and per-shard compaction, the index
// can be partitioned into sub-rings with
// NewBuilderWithConfig(BuilderConfig{Shards: K}); queries, saving
// and loading are transparent to the layout (see the README's sharded
// mode section).
//
// The index also accepts live updates: Apply (or Begin/Commit) folds
// triples into an in-memory overlay that every query unions in
// transparently, and a background compactor rebuilds the ring and
// swaps the snapshot atomically — in-flight queries finish on the
// snapshot they started with (see Apply, Flush and the README's "Live
// updates" section).
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
	"ringrpq/internal/overlay"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/service"
	"ringrpq/internal/standing"
	"ringrpq/internal/triples"
)

// BuilderConfig tunes index construction. The zero value builds the
// default single-ring index.
type BuilderConfig struct {
	// Shards partitions the triples across this many sub-rings that are
	// built in parallel (queries whose expressions span shards traverse
	// them on one goroutine). 0 or 1 builds the classic single ring.
	// Partitioning is by hash of the base predicate, so a predicate and
	// its inverse always share a shard; see the README's sharded-mode
	// section for when sharding pays off. Values beyond the supported
	// maximum are clamped.
	Shards int
}

// Builder accumulates triples before indexing.
type Builder struct {
	b   *triples.Builder
	cfg BuilderConfig
}

// NewBuilder returns an empty builder using the default configuration.
func NewBuilder() *Builder {
	return NewBuilderWithConfig(BuilderConfig{})
}

// NewBuilderWithConfig returns an empty builder with the given
// configuration, e.g. NewBuilderWithConfig(BuilderConfig{Shards: 8}).
func NewBuilderWithConfig(cfg BuilderConfig) *Builder {
	return &Builder{b: triples.NewBuilder(), cfg: cfg}
}

// SetShards selects the shard count used by Build (see
// BuilderConfig.Shards).
func (b *Builder) SetShards(k int) { b.cfg.Shards = k }

// Add inserts the edge s --p--> o. Duplicate edges collapse.
func (b *Builder) Add(s, p, o string) { b.b.Add(s, p, o) }

// Load reads whitespace-separated "s p o" triples (optionally with
// <IRI> tokens, comments and N-Triples dots) from r.
func (b *Builder) Load(r io.Reader) error { return triples.Load(r, b.b) }

// Build completes the graph with inverse edges, constructs the ring
// index (sharded when configured), and returns a queryable database.
// A database holds fewer than 2^32 completed triples (each edge counts
// twice, as itself and its inverse). The builder must not be used
// afterwards.
func (b *Builder) Build() (*DB, error) {
	g := b.b.Build()
	if g.Len() == 0 {
		return nil, errors.New("ringrpq: empty graph")
	}
	if err := bitvec.CheckLen(g.Len()); err != nil {
		return nil, fmt.Errorf("ringrpq: %d completed triples: %w", g.Len(), err)
	}
	if b.cfg.Shards > 1 {
		return newDB(g, nil, ring.NewShardSet(g, b.cfg.Shards, nil, ring.WaveletMatrix)), nil
	}
	return newDB(g, ring.New(g, ring.WaveletMatrix), nil), nil
}

// newDB assembles a DB around a freshly built or loaded static index.
func newDB(g *triples.Graph, r *ring.Ring, set *ring.ShardSet) *DB {
	return &DB{g: g, h: newHolder(r, set, g.NumNodes()), sel: query.NewSelCache()}
}

// DB is an RPQ-queryable graph database. Its query methods share
// working arrays and must not be called concurrently; use Clone for
// parallel workers. (An evaluation runs on its caller's goroutine, on a
// sharded DB too: sub-rings are built in parallel, not traversed in
// parallel.)
//
// The index is no longer frozen after Build: Apply folds live updates
// into an in-memory overlay that every query unions in, and a
// background compactor periodically rebuilds the static ring and swaps
// the snapshot atomically (see Apply, Begin, Flush and the README's
// "Live updates" section). Updates are safe from any goroutine; each
// query evaluates against the one snapshot it pinned at entry.
type DB struct {
	g *triples.Graph
	// h publishes the current (static index, overlay) snapshot, shared
	// with every clone.
	h *holder

	// sel shares the planner's lazily built selectivity statistics
	// across clones.
	sel *query.SelCache

	// Per-clone evaluation state, rebuilt when the pinned snapshot's
	// epoch moves past it (one-caller rule applies).
	epoch    uint64
	haveEng  bool
	static   core.Evaluator
	union    *overlay.Engine
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
	return &DB{g: db.g, h: db.h, sel: db.sel}
}

// Shards reports the number of sub-rings the database is partitioned
// into (1 for the classic single-ring layout).
func (db *DB) Shards() int {
	return db.h.cur.Load().shards()
}

// evaluatorFor returns this clone's evaluator for the pinned snapshot:
// the plain static engine when the overlay is empty, the union engine
// otherwise. Engines are rebuilt when a compaction has swapped the
// snapshot since they were built.
func (db *DB) evaluatorFor(snap *snapshot) core.Evaluator {
	if !db.haveEng || db.epoch != snap.epoch {
		db.epoch = snap.epoch
		db.haveEng = true
		if snap.set != nil {
			db.static = core.NewShardedEngine(snap.set, db.predIDs())
		} else {
			db.static = core.NewEngine(snap.r, db.predIDs())
		}
		db.union = nil
	}
	if snap.ov.Empty() {
		return db.static
	}
	if db.union == nil {
		db.union = overlay.NewEngine(db.static, snap.rings(), db.predIDs(), db.g.NumCompletedPreds())
	}
	db.union.SetSnapshot(snap.ov, snap.numNodes)
	return db.union
}

// Solution is one result mapping of a query: Subject and Object name
// the path's endpoints.
type Solution = service.Solution

// QueryOption tunes one query.
type QueryOption func(*core.Options)

// WithLimit caps the number of solutions.
func WithLimit(n int) QueryOption {
	return func(o *core.Options) { o.Limit = n }
}

// WithTimeout bounds evaluation wall-clock time; exceeding it returns
// ErrTimeout along with the solutions found so far.
func WithTimeout(d time.Duration) QueryOption {
	return func(o *core.Options) { o.Timeout = d }
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
func (db *DB) Query(subject, expr, object string, opts ...QueryOption) ([]Solution, error) {
	var out []Solution
	err := db.QueryFunc(subject, expr, object, func(s Solution) bool {
		out = append(out, s)
		return true
	}, opts...)
	return out, err
}

// QueryFunc is Query with streaming delivery: emit receives each
// solution and may return false to stop early.
func (db *DB) QueryFunc(subject, expr, object string, emit func(Solution) bool, opts ...QueryOption) error {
	node, err := pathexpr.Parse(expr)
	if err != nil {
		return err
	}
	var options core.Options
	for _, opt := range opts {
		opt(&options)
	}
	return db.queryNode(context.Background(), subject, node, object, options, emit)
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
func (db *DB) Count(subject, expr, object string, opts ...QueryOption) (int, error) {
	n := 0
	err := db.QueryFunc(subject, expr, object, func(Solution) bool {
		n++
		return true
	}, opts...)
	return n, err
}

func isVariable(endpoint string) bool {
	return strings.HasPrefix(endpoint, "?")
}

// Stats summarises the database.
type Stats struct {
	// Nodes is |V|.
	Nodes int
	// Edges is the original (pre-completion) edge count.
	Edges int
	// CompletedEdges counts edges after adding inverses (2·Edges).
	CompletedEdges int
	// Predicates is the original predicate count |P|.
	Predicates int
	// IndexBytes is the ring footprint used by queries (summed over
	// sub-rings): L_s and L_p with their rank directories and symbol
	// counts, plus L_o's symbol counts, each allocation counted once.
	// The dictionaries and L_o's bits are not included.
	IndexBytes int
	// Shards is the sub-ring count (1 for the single-ring layout).
	Shards int
}

// indexN reports the completed triple count of the static index (the
// overlay's pending adds are not included; see UpdateStats).
func (db *DB) indexN() int {
	return db.h.cur.Load().indexN()
}

// indexQueryBytes reports the query-relevant index footprint.
func (db *DB) indexQueryBytes() int {
	return db.h.cur.Load().indexQueryBytes()
}

// Stats reports database statistics.
func (db *DB) Stats() Stats {
	// The index's N is used rather than the builder's triple list so the
	// counts survive Save/LoadDB (the triple list is not persisted).
	return Stats{
		Nodes:          db.g.NumNodes(),
		Edges:          db.indexN() / 2,
		CompletedEdges: db.indexN(),
		Predicates:     int(db.g.NumPreds),
		IndexBytes:     db.indexQueryBytes(),
		Shards:         db.Shards(),
	}
}

// BytesPerEdge reports the index's bytes per completed edge, the
// space measure of the paper's Table 2.
func (db *DB) BytesPerEdge() float64 {
	return float64(db.indexQueryBytes()) / float64(db.indexN())
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
	s := db.Stats()
	return fmt.Sprintf("ringrpq.DB{%d nodes, %d edges, %d predicates, %.2f B/edge}",
		s.Nodes, s.Edges, s.Predicates, db.BytesPerEdge())
}

// ServiceConfig tunes a Service; the zero value picks sensible
// defaults (GOMAXPROCS workers, 4×workers queue depth, 1024-entry
// expression cache, 4096-entry / 64 MiB result cache). Negative cache
// sizes disable the corresponding cache.
type ServiceConfig = service.Config

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = service.Stats

// Request is one query submission to a Service (used directly by
// Batch; Query/Count/QueryFunc build it from their arguments).
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
	s  *service.Service
	db *DB
}

// NewService starts a query service over db. The db may still be used
// directly (single-threadedly) by the caller; workers evaluate on
// clones. Close the service to release its workers.
func NewService(db *DB, cfg ServiceConfig) *Service {
	return &Service{s: service.New(dbBackend{db}, cfg), db: db}
}

// dbBackend adapts a DB to the service worker interface.
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

// EvalPattern implements service.PatternBackend, so Services over a DB
// serve graph patterns (Select, POST /select).
func (b dbBackend) EvalPattern(ctx context.Context, q *query.Query, limit int, timeout time.Duration, emit func([]string) bool) error {
	o := core.Options{Limit: limit, Timeout: timeout, Trace: obs.FromContext(ctx)}
	return b.db.selectFunc(q, o, emit)
}

// ApplyUpdates implements service.Updater: Services over a DB accept
// live updates (Update, POST /update). Safe for concurrent use — the
// batch goes to the shared snapshot holder, not through the pool.
func (b dbBackend) ApplyUpdates(ctx context.Context, adds, dels []service.UpdateTriple) (service.UpdateResult, error) {
	conv := func(ts []service.UpdateTriple) []Triple {
		out := make([]Triple, len(ts))
		for i, t := range ts {
			out[i] = Triple{Subject: t.S, Predicate: t.P, Object: t.O}
		}
		return out
	}
	st, err := b.db.ApplyContext(ctx, conv(adds), conv(dels))
	return service.UpdateResult{
		OverlayEdges: st.OverlayEdges,
		Tombstones:   st.Tombstones,
		Epoch:        st.Epoch,
		Version:      st.DataVersion,
		Compacting:   st.Compacting,
	}, err
}

// DataVersion implements service.Versioned: the result cache pins
// entries to the data version they were computed against, so updates
// and compaction swaps invalidate them in O(1).
func (b dbBackend) DataVersion() uint64 { return b.db.DataVersion() }

// Subscribe, ResumeSubscription, Unsubscribe and StandingStats
// implement service.StandingBackend: Services over a DB serve standing
// queries (Service.Subscribe, GET /subscribe). All four go to the
// shared registry, never through the worker pool.
func (b dbBackend) Subscribe(req standing.Request) (*standing.Sub, error) {
	return b.db.Subscribe(req)
}

func (b dbBackend) ResumeSubscription(id, from uint64) (*standing.Sub, error) {
	return b.db.ResumeSubscription(id, from)
}

func (b dbBackend) Unsubscribe(id uint64) bool { return b.db.Unsubscribe(id) }

func (b dbBackend) StandingStats() service.StandingStats {
	st := b.db.StandingStats()
	return service.StandingStats{
		Active:           st.Active,
		Detached:         st.Detached,
		Lagged:           st.Lagged,
		ReplayLogBatches: b.db.UpdateStats().ReplayBatches,
		Version:          st.Version,
		Batches:          st.Batches,
		Incremental:      st.Incremental,
		FullReevals:      st.FullReevals,
		Skipped:          st.Skipped,
		Deltas:           st.Deltas,
		Overflows:        st.Overflows,
	}
}

// WALStats implements service.WALStatser, so /stats reports the
// durability layer of an OpenDurable'd database.
func (b dbBackend) WALStats() service.WALStats {
	st := b.db.WALStats()
	return service.WALStats{
		Enabled:               st.Enabled,
		Dir:                   st.Dir,
		FsyncPolicy:           st.FsyncPolicy,
		Appended:              st.Appended,
		AppendedBytes:         st.AppendedBytes,
		Fsyncs:                st.Fsyncs,
		Replayed:              st.Replayed,
		TornBytes:             st.TornBytes,
		Segments:              st.Segments,
		SizeBytes:             st.SizeBytes,
		Checkpoints:           st.Checkpoints,
		CheckpointErrors:      st.CheckpointErrors,
		LastCheckpointVersion: st.LastCheckpointVersion,
		LastCheckpointMS:      float64(b.db.h.lastCheckpointNS.Load()) / 1e6,
		Wedged:                st.Wedged,
		WedgeReason:           st.WedgeReason,
	}
}

// request converts one public call into a service Request, folding
// WithLimit/WithTimeout options into the request parameters.
func request(subject, expr, object string, opts []QueryOption) Request {
	var options core.Options
	for _, opt := range opts {
		opt(&options)
	}
	return Request{
		Subject: subject, Expr: expr, Object: object,
		Limit: options.Limit, Timeout: options.Timeout,
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

// QueryFunc streams solutions to emit, which runs on a worker
// goroutine and may return false to stop early; it is never called
// after QueryFunc returns. Streamed queries bypass the result cache.
func (s *Service) QueryFunc(ctx context.Context, subject, expr, object string, emit func(Solution) bool, opts ...QueryOption) error {
	return s.s.QueryFunc(ctx, request(subject, expr, object, opts), emit)
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

// Update atomically applies one live-update batch (adds then dels) to
// the underlying database (see DB.Apply). It does not occupy a worker:
// queries in flight finish on the snapshot they pinned, queries
// submitted afterwards see the update, and stale result-cache entries
// are never replayed.
func (s *Service) Update(ctx context.Context, adds, dels []Triple) (UpdateStats, error) {
	conv := func(ts []Triple) []service.UpdateTriple {
		out := make([]service.UpdateTriple, len(ts))
		for i, t := range ts {
			out[i] = service.UpdateTriple{S: t.Subject, P: t.Predicate, O: t.Object}
		}
		return out
	}
	_, err := s.s.Update(ctx, conv(adds), conv(dels))
	return s.db.UpdateStats(), err
}

// Subscribe registers a standing query through the service (see
// DB.Subscribe); Service.Close terminates it along with every other
// subscription registered this way, deterministically unblocking
// consumers.
func (s *Service) Subscribe(req SubscribeRequest) (*Subscription, error) {
	return s.s.Subscribe(req)
}

// ResumeSubscription reattaches to a subscription after a disconnect,
// replaying retained deltas newer than from (see
// DB.ResumeSubscription).
func (s *Service) ResumeSubscription(id, from uint64) (*Subscription, error) {
	return s.s.ResumeSubscription(id, from)
}

// Unsubscribe removes and terminates a subscription by id.
func (s *Service) Unsubscribe(id uint64) bool { return s.s.Unsubscribe(id) }

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats { return s.s.Stats() }

// HandlerConfig tunes the HTTP handler returned by Service.Handler.
type HandlerConfig = service.HandlerConfig

// Handler returns an http.Handler exposing the service's JSON API:
// POST /query, POST /batch, GET /stats and GET /healthz (the API that
// cmd/rpqd serves).
func (s *Service) Handler(cfg HandlerConfig) http.Handler {
	return service.NewHandler(s.s, cfg)
}

// Close stops accepting requests, lets queued and running queries
// finish, and releases the workers. Close is idempotent.
func (s *Service) Close() error { return s.s.Close() }

// CloseSubscriptions terminates every standing-query subscription
// registered through this service — blocked consumers and streaming
// /subscribe handlers unblock with a terminal error — without
// stopping the worker pool. Call it at the start of a graceful HTTP
// shutdown, before http.Server.Shutdown: the long-lived subscription
// streams never go idle on their own, so they must end before the
// server can drain its connections. Idempotent; Close runs it too.
func (s *Service) CloseSubscriptions() { s.s.CloseSubscriptions() }
