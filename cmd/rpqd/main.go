// Command rpqd serves regular path queries over HTTP: it loads a triple
// file (or a serialised index), starts a ringrpq query service — a
// worker pool over the shared immutable ring index, with compiled-query
// and result caches — and exposes it as a JSON API.
//
// Usage:
//
//	rpqd -data graph.nt [-addr :8080] [-workers N] [-queue N]
//	     [-timeout D] [-limit N]
//	     [-result-cache N] [-result-cache-bytes N]
//	     [-sub-queue N] [-sub-history N]
//	rpqd -index graph.ring ...
//	rpqd -wal-dir ./state [-data graph.nt] [-fsync always|interval|never]
//
// A serialised index loaded with -index is an rdb1 file, as rpq -save
// writes it.
//
// With -wal-dir every applied update is written to a write-ahead log
// before it is acknowledged (under the default -fsync always, after an
// fsync), compactions checkpoint the merged index into the same
// directory, and a restart — clean or after a crash — recovers the
// exact acknowledged state, including standing-query subscriptions and
// their resume cursors. -data/-index are only consulted when the
// directory holds no state yet.
//
// Endpoints:
//
//	POST /query   {"subject":"?x","expr":"a/b*","object":"?y",
//	               "limit":100,"timeout":"2s","count":false}
//	POST /select  {"query":"SELECT ?x ?y WHERE { ?x a/b* ?y . ?y c wd:Q30 }",
//	               "limit":100,"timeout":"2s","count":false}
//	POST /batch   {"queries":[{...},{...}]}
//	POST /update  {"add":[{"s":"a","p":"knows","o":"b"}],"del":[...]}
//	              or bulk NDJSON (Content-Type: application/x-ndjson,
//	              one {"op":"add"|"del","s":..,"p":..,"o":..} per line)
//	GET  /subscribe   standing query: ?expr= or ?pattern= registers a
//	                  subscription and streams incremental result deltas
//	                  as Server-Sent Events (&mode=poll long-polls
//	                  instead; &id=N&from=V resumes after a disconnect)
//	DELETE /subscribe ?id=N unsubscribes
//	GET  /stats   service and index statistics
//	GET  /healthz liveness probe (200 while the process serves)
//	GET  /readyz  readiness probe: 503 with a reason once the service
//	              is shutting down or the write-ahead log has wedged
//	GET  /metrics Prometheus text exposition of every service counter,
//	              including request/eval latency histograms
//	GET  /debug/slowlog  recent slow queries as JSON (with -slow-query)
//
// Observability: -slow-query D logs any request slower than D (structured
// slog line per query, plus the bounded in-memory ring behind
// /debug/slowlog); "profile": true on /query, /select or /batch items
// returns a span trace of that request's evaluation under "profile";
// -debug-addr :6060 serves net/http/pprof on a separate listener.
//
// Empty subject/object fields are variables. A path expression (in
// "expr", in a pattern, or in a subscription) may have at most 63
// positions, a negated property set counting as one, and nest at most
// 256 levels deep; a larger one is a 400. An absent limit applies
// the -limit default; an explicit 0 asks for unlimited results, and
// responses that fill their cap carry "limit_reached": true.
// Evaluation timeouts are not errors: the response carries the
// solutions found in time with 206 and "truncated": true.
//
// /select evaluates graph patterns — conjunctions of triple patterns
// and RPQ clauses (see the README's "Graph patterns" section) — and
// returns {"vars": [...], "rows": [[...], ...]}.
//
// /update applies live updates atomically: queries in flight finish on
// the snapshot they started with, later queries see the union
// ring ∪ adds − dels, and a background compactor (tuned with
// -compact-threshold) merges the overlay into the ring and swaps the
// result in atomically once the overlay grows past the threshold. New
// node names are fine; new predicate names are rejected (the completed
// predicate id space is fixed at build time).
//
// /subscribe turns a query into a standing one: every applied update
// batch is diffed against the subscription incrementally and the
// additions/retractions stream to the client in data-version order
// (see the README's "Standing queries" section). -sub-queue bounds the
// per-subscriber pending delta queue (a slower consumer is marked
// lagged and must resume from its last seen version); -sub-history
// bounds the retained per-subscription delta history that serves those
// resumes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (served only on -debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"ringrpq"
)

func main() {
	var (
		data       = flag.String("data", "", "triple file to load")
		index      = flag.String("index", "", "serialised index to load (instead of -data)")
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "request queue depth (0 = 4×workers)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		limit      = flag.Int("limit", 100000, "default per-query solution cap (0 = unlimited)")
		resC       = flag.Int("result-cache", 0, "result cache entries (0 = default, negative = off)")
		resBytes   = flag.Int64("result-cache-bytes", 0, "result cache byte bound (0 = default, negative = off)")
		maxBatch   = flag.Int("max-batch", 1024, "maximum queries per /batch call")
		compact    = flag.Int("compact-threshold", 0, "overlay size triggering background compaction (0 = auto: N/4, negative = disabled)")
		subQueue   = flag.Int("sub-queue", 0, "per-subscription pending delta queue depth (0 = default 64)")
		subHistory = flag.Int("sub-history", 0, "per-subscription delta history retained for resume (0 = default 256)")
		walDir     = flag.String("wal-dir", "", "durability directory (write-ahead log + checkpoints): updates survive restarts and crashes; after the first run -data/-index are only needed if the directory is empty")
		fsyncPol   = flag.String("fsync", "always", "WAL fsync policy: always (ack after fsync), interval, never (with -wal-dir)")
		fsyncIvl   = flag.Duration("fsync-interval", 0, "fsync period for -fsync=interval (0 = default 100ms)")
		slowQuery  = flag.Duration("slow-query", 0, "log queries slower than this (0 = disabled); entries also appear on GET /debug/slowlog")
		slowCap    = flag.Int("slow-log-capacity", 0, "slow-query entries retained in memory (0 = default 128; with -slow-query)")
		debugAddr  = flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = disabled)")
	)
	flag.Parse()
	if *data == "" && *index == "" && *walDir == "" {
		fmt.Fprintln(os.Stderr, "rpqd: one of -data, -index or -wal-dir is required")
		os.Exit(2)
	}

	standingCfg := ringrpq.StandingConfig{}
	if *subQueue > 0 || *subHistory > 0 {
		standingCfg = ringrpq.StandingConfig{
			QueueDepth: *subQueue,
			History:    *subHistory,
		}
	}

	var db *ringrpq.DB
	var err error
	if *walDir != "" {
		start := time.Now()
		db, err = ringrpq.OpenDurable(ringrpq.WALConfig{
			Dir:           *walDir,
			Fsync:         *fsyncPol,
			FsyncInterval: *fsyncIvl,
			Standing:      standingCfg,
		}, func() (*ringrpq.DB, error) {
			if *data == "" && *index == "" {
				return nil, errors.New("rpqd: empty -wal-dir needs -data or -index for the initial build")
			}
			return loadDB(*data, *index)
		})
		if err == nil {
			ws := db.Stats().WAL
			fmt.Fprintf(os.Stderr, "rpqd: durable on %s (fsync=%s): recovered %d record(s), truncated %d torn byte(s), checkpoint v%d, in %v\n",
				*walDir, ws.FsyncPolicy, ws.Replayed, ws.TornBytes, ws.LastCheckpointVersion, time.Since(start))
		}
	} else {
		db, err = loadDB(*data, *index)
	}
	if err != nil {
		fatal(err)
	}
	if *compact != 0 {
		db.SetCompactionThreshold(*compact)
	}
	if *walDir == "" && standingCfg != (ringrpq.StandingConfig{}) {
		db.SetStandingConfig(standingCfg)
	}
	fmt.Fprintf(os.Stderr, "rpqd: serving %s\n", db)

	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{
		Workers:            *workers,
		QueueDepth:         *queue,
		DefaultTimeout:     *timeout,
		ResultCacheEntries: *resC,
		ResultCacheBytes:   *resBytes,
		SlowQueryThreshold: *slowQuery,
		SlowLogCapacity:    *slowCap,
	})

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are
		// never exposed on the service port. The blank net/http/pprof
		// import registers its handlers on http.DefaultServeMux.
		go func() {
			fmt.Fprintf(os.Stderr, "rpqd: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rpqd: debug listener: %v\n", err)
			}
		}()
	}

	server := &http.Server{
		Addr: *addr,
		Handler: svc.Handler(ringrpq.HandlerConfig{
			DefaultLimit: *limit,
			MaxBatch:     *maxBatch,
		}),
		// Slowloris and stuck-client protection. The write timeout would
		// kill long-lived SSE streams and long-poll rounds, so the
		// /subscribe handlers extend their own deadlines per response
		// (http.ResponseController); everything else answers in bounded
		// time.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: stop accepting connections, let in-flight
	// requests finish, then drain the service's worker pool.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rpqd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rpqd: shutting down")
		// Standing-query streams never go idle on their own; end them
		// first so Shutdown can drain the remaining connections.
		svc.CloseSubscriptions()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "rpqd: shutdown: %v\n", err)
		}
		if err := svc.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rpqd: close: %v\n", err)
		}
		// Last: every acknowledged update is already fsynced (or tick-
		// flushed); this flushes any unsynced tail and closes the log.
		if err := db.CloseWAL(); err != nil {
			fmt.Fprintf(os.Stderr, "rpqd: wal close: %v\n", err)
		}
	}
}

// loadDB builds the database from a triple file or loads a serialised
// index.
func loadDB(data, index string) (*ringrpq.DB, error) {
	start := time.Now()
	if index != "" {
		f, err := os.Open(index)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		db, err := ringrpq.LoadDB(f)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "rpqd: loaded index in %v\n", time.Since(start))
		return db, nil
	}
	f, err := os.Open(data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := ringrpq.NewBuilder()
	if err := b.Load(f); err != nil {
		return nil, err
	}
	db, err := b.Build()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "rpqd: indexed in %v\n", time.Since(start))
	return db, nil
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "rpqd: %v\n", err)
	os.Exit(1)
}
