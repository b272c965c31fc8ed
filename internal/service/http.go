package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/obs"
)

// HandlerConfig tunes the HTTP front-end.
type HandlerConfig struct {
	// DefaultLimit caps solutions for requests that do not set their
	// own limit; 0 means unlimited.
	DefaultLimit int
	// MaxBatch bounds the number of queries in one /batch call.
	// Default 1024.
	MaxBatch int
	// MaxBodyBytes bounds request body sizes before decoding.
	// Default 8 MiB.
	MaxBodyBytes int64
}

// QueryJSON is the wire form of a Request (POST /query, items of POST
// /batch). Timeout is a Go duration string such as "250ms" or "2s".
// An absent limit applies the server's default; an explicit 0 asks
// for unlimited results.
type QueryJSON struct {
	Subject string `json:"subject"`
	Expr    string `json:"expr"`
	Object  string `json:"object"`
	Limit   *int   `json:"limit,omitempty"`
	Timeout string `json:"timeout,omitempty"`
	Count   bool   `json:"count,omitempty"`
	// Profile asks for a span trace of this request's evaluation,
	// returned under "profile" in the response.
	Profile bool `json:"profile,omitempty"`
}

// SolutionJSON is the wire form of a Solution.
type SolutionJSON struct {
	Subject string `json:"subject"`
	Object  string `json:"object"`
}

// ResultJSON is the wire form of a Result. It and SelectResultJSON
// describe the bodies and decode them, but the handler never encodes
// them: it splices the result's fragment, written once by wire.go's
// appender without reflection, with a per-request tail.
// TestBodiesMatchEncoder and FuzzFragment hold the spliced bodies to
// json.Encoder's bytes for these types.
type ResultJSON struct {
	Solutions []SolutionJSON `json:"solutions,omitempty"`
	Count     int            `json:"count"`
	Cached    bool           `json:"cached,omitempty"`
	// Truncated reports a partial result: the evaluation hit its
	// deadline and the solutions are what was found in time. Truncated
	// responses are served with 206 Partial Content (batch items keep
	// the whole-batch 200) and are never stored in — or replayed from —
	// the result cache.
	Truncated bool `json:"truncated,omitempty"`
	// LimitReached reports that the result filled the request's (or
	// the server's default) solution cap: the count may be truncated.
	LimitReached bool   `json:"limit_reached,omitempty"`
	Error        string `json:"error,omitempty"`
	// ElapsedMS is per-query wall time; batch responses report only
	// the whole-batch elapsed_ms at the top level (individual timings
	// are not observable from the fan-out) and omit this field.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Profile is the rendered span trace of a profiled request
	// (QueryJSON.Profile); absent otherwise.
	Profile *obs.Profile `json:"profile,omitempty"`
}

// BatchJSON is the wire form of a POST /batch body.
type BatchJSON struct {
	Queries []QueryJSON `json:"queries"`
}

// SelectJSON is the wire form of a POST /select body: a graph-pattern
// query mixing triple patterns and RPQ clauses.
type SelectJSON struct {
	Query   string `json:"query"`
	Limit   *int   `json:"limit,omitempty"`
	Timeout string `json:"timeout,omitempty"`
	Count   bool   `json:"count,omitempty"`
	// Profile asks for a span trace of this request's evaluation.
	Profile bool `json:"profile,omitempty"`
}

// SelectResultJSON is the wire form of a /select response: the
// projected variable names and one row of values per solution.
// Failures (parse errors, unsupported variable orders) are reported as
// non-200 {"error": ...} responses; only timeouts reach a 200 body,
// flagged with truncated.
type SelectResultJSON struct {
	Vars         []string     `json:"vars"`
	Rows         [][]string   `json:"rows,omitempty"`
	Count        int          `json:"count"`
	Cached       bool         `json:"cached,omitempty"`
	Truncated    bool         `json:"truncated,omitempty"`
	LimitReached bool         `json:"limit_reached,omitempty"`
	ElapsedMS    float64      `json:"elapsed_ms,omitempty"`
	Profile      *obs.Profile `json:"profile,omitempty"`
}

// UpdateTripleJSON is the wire form of one update triple.
type UpdateTripleJSON struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
	// Op selects "add" (default) or "del"; only meaningful in NDJSON
	// streams, where each line stands alone.
	Op string `json:"op,omitempty"`
}

// UpdateJSON is the wire form of a POST /update body (JSON mode).
type UpdateJSON struct {
	Add []UpdateTripleJSON `json:"add,omitempty"`
	Del []UpdateTripleJSON `json:"del,omitempty"`
}

// UpdateResultJSON is the wire form of a POST /update response.
type UpdateResultJSON struct {
	Added        int     `json:"added"`
	Deleted      int     `json:"deleted"`
	OverlayEdges int     `json:"overlay_edges"`
	Tombstones   int     `json:"tombstones"`
	Epoch        uint64  `json:"epoch"`
	Version      uint64  `json:"version"`
	Compacting   bool    `json:"compacting,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
}

// NewHandler mounts the service's HTTP API:
//
//	POST /query   evaluate one 2RPQ         (QueryJSON → ResultJSON)
//	POST /select  evaluate a graph pattern  (SelectJSON → SelectResultJSON)
//	POST /batch   evaluate many queries     (BatchJSON → {"results": [...]})
//	POST /update  apply one update batch    (UpdateJSON or NDJSON →
//	              UpdateResultJSON)
//	GET  /subscribe  standing-query deltas  (SSE or long-poll; see
//	                 DecodeSubscribeRequest)
//	DELETE /subscribe?id=N  terminate a subscription
//	GET  /stats   service + index counters
//	GET  /healthz liveness probe (always 200 while the process serves)
//	GET  /readyz  readiness probe (503 once closed or the WAL wedges)
//	GET  /metrics Prometheus text exposition of every service counter
//	GET  /debug/slowlog  recent slow queries (JSON, newest first)
func NewHandler(s *Service, cfg HandlerConfig) http.Handler {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	h := &handler{s: s, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", h.query)
	mux.HandleFunc("POST /select", h.selectPattern)
	mux.HandleFunc("POST /batch", h.batch)
	mux.HandleFunc("POST /update", h.update)
	mux.HandleFunc("GET /subscribe", h.subscribe)
	mux.HandleFunc("DELETE /subscribe", h.unsubscribe)
	mux.HandleFunc("GET /stats", h.stats)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.Handle("GET /metrics", s.Metrics())
	mux.HandleFunc("GET /debug/slowlog", h.slowlog)
	return mux
}

type handler struct {
	s   *Service
	cfg HandlerConfig
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// toRequest validates and converts one wire query.
func (h *handler) toRequest(q QueryJSON) (Request, error) {
	if q.Expr == "" {
		return Request{}, errors.New("missing expr")
	}
	req := Request{
		Subject: q.Subject, Expr: q.Expr, Object: q.Object,
		Count: q.Count, Limit: h.cfg.DefaultLimit, Profile: q.Profile,
	}
	if q.Limit != nil {
		if *q.Limit < 0 {
			return Request{}, errors.New("limit must be non-negative")
		}
		req.Limit = *q.Limit // explicit 0 = unlimited
	}
	if req.Subject == "" {
		req.Subject = "?s"
	}
	if req.Object == "" {
		req.Object = "?o"
	}
	if q.Timeout != "" {
		d, err := time.ParseDuration(q.Timeout)
		if err != nil {
			return Request{}, fmt.Errorf("bad timeout: %w", err)
		}
		// A non-positive timeout would disable the server's default
		// bound and pin a worker indefinitely.
		if d <= 0 {
			return Request{}, errors.New("timeout must be positive")
		}
		req.Timeout = d
	}
	return req, nil
}

// resultStatus picks the HTTP status of a successful evaluation:
// truncated (deadline-cut) results are distinguishable from complete
// ones without parsing the body.
func resultStatus(err error) int {
	if errors.Is(err, core.ErrTimeout) {
		return http.StatusPartialContent
	}
	return http.StatusOK
}

// toPatternRequest validates and converts one wire pattern query.
func (h *handler) toPatternRequest(q SelectJSON) (Request, error) {
	if q.Query == "" {
		return Request{}, errors.New("missing query")
	}
	req := Request{Pattern: q.Query, Count: q.Count, Limit: h.cfg.DefaultLimit, Profile: q.Profile}
	if q.Limit != nil {
		if *q.Limit < 0 {
			return Request{}, errors.New("limit must be non-negative")
		}
		req.Limit = *q.Limit
	}
	if q.Timeout != "" {
		d, err := time.ParseDuration(q.Timeout)
		if err != nil {
			return Request{}, fmt.Errorf("bad timeout: %w", err)
		}
		if d <= 0 {
			return Request{}, errors.New("timeout must be positive")
		}
		req.Timeout = d
	}
	return req, nil
}

func (h *handler) selectPattern(w http.ResponseWriter, r *http.Request) {
	var q SelectJSON
	if err := h.decodeBody(w, r, &q); err != nil {
		return
	}
	req, err := h.toPatternRequest(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	ctx, tr, root := h.traceFor(r, req)
	writeResult(w, tr, root, req, h.s.Select(ctx, req), start)
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	var q QueryJSON
	if err := h.decodeBody(w, r, &q); err != nil {
		return
	}
	req, err := h.toRequest(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	ctx, tr, root := h.traceFor(r, req)
	writeResult(w, tr, root, req, h.s.do(ctx, req), start)
}

// writeResult answers /query and /select. A cache miss and a cache hit
// take the same path; what a hit skips is the fragment's encoding,
// which a stored result carries (Result.frag). The
// serialize span of a profiled request covers the assembly of the body
// it describes, so the profile itself is rendered once the root span
// has closed and spliced in behind it.
func writeResult(w http.ResponseWriter, tr *obs.Trace, root int, req Request, res Result, start time.Time) {
	if status, ok := failureStatus(res.Err); ok {
		writeError(w, status, res.Err)
		return
	}
	b := bodyPool.Get().(*body)
	defer b.release()
	ssp := tr.Begin(obs.SpanSerialize)
	b.appendResult(req, &res, time.Since(start))
	tr.EndVals(ssp, int64(b.Len()))
	if tr != nil {
		tr.End(root)
		b.spliceProfile(tr.Render())
	}
	b.send(w, resultStatus(res.Err))
}

// traceFor opens the root request span of a profiled request and
// attaches the trace to the submission context; (ctx, nil, -1) when
// the request is not profiled.
func (h *handler) traceFor(r *http.Request, req Request) (context.Context, *obs.Trace, int) {
	if !req.Profile {
		return r.Context(), nil, -1
	}
	tr := obs.New()
	root := tr.Begin(obs.SpanRequest)
	return obs.NewContext(r.Context(), tr), tr, root
}

// decodeBody decodes a size-bounded JSON request body, writing the
// error response (413 for oversized bodies, 400 otherwise) itself.
func (h *handler) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, h.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		return err
	}
	return nil
}

func (h *handler) batch(w http.ResponseWriter, r *http.Request) {
	var in BatchJSON
	if err := h.decodeBody(w, r, &in); err != nil {
		return
	}
	if len(in.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(in.Queries) > h.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the %d-query cap", len(in.Queries), h.cfg.MaxBatch))
		return
	}
	reqs := make([]Request, len(in.Queries))
	for i, q := range in.Queries {
		req, err := h.toRequest(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		reqs[i] = req
	}
	start := time.Now()
	results := h.s.Batch(r.Context(), reqs)
	b := bodyPool.Get().(*body)
	defer b.release()
	b.encode(struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	}{float64(time.Since(start).Microseconds()) / 1e3})
	b.Truncate(b.Len() - 1)
	b.WriteString(`,"results":[`)
	for i := range results {
		if i > 0 {
			b.WriteByte(',')
		}
		b.appendResult(reqs[i], &results[i], 0)
		// Profiled batch items carry their own service-created trace
		// (submit opens the root span, the worker closes it).
		if tr := results[i].Trace; tr != nil {
			b.spliceProfile(tr.Render())
		}
	}
	b.WriteString("]}")
	b.send(w, http.StatusOK)
}

// failureStatus maps submission-level failures to HTTP statuses;
// evaluation timeouts are not failures (the partial result is
// returned with truncated set).
func failureStatus(err error) (int, bool) {
	switch {
	case err == nil, errors.Is(err, core.ErrTimeout):
		return 0, false
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError, true
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, true
	default:
		return http.StatusBadRequest, true
	}
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	st, index := h.s.stats()
	out := map[string]any{"service": st}
	if index != nil {
		out["index"] = index
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz distinguishes "alive" from "able to serve": it fails once the
// service is closed (draining for shutdown) or the write-ahead log has
// wedged (appends are being refused, so updates would be lost).
func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	if h.s.Closed() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "reason": "service closed"})
		return
	}
	if err := h.s.src.WALErr(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "reason": "write-ahead log wedged: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// slowlog dumps the retained slow-query entries, newest first.
func (h *handler) slowlog(w http.ResponseWriter, r *http.Request) {
	sl := h.s.SlowLog()
	if sl == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled": false, "entries": []obs.SlowEntry{},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":   true,
		"threshold": sl.Threshold().String(),
		"total":     sl.Total(),
		"entries":   sl.Entries(),
	})
}
