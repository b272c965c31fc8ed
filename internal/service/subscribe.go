package service

// Standing-query support: subscriptions registered through the service
// are tracked so Close terminates them deterministically (SSE and
// long-poll handlers unblock instead of leaking), and the GET/DELETE
// /subscribe endpoints expose them over HTTP with resume-from-version
// semantics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ringrpq/internal/standing"
)

// Subscribe registers a standing query through the backend and tracks
// the subscription so Close terminates it.
func (s *Service) Subscribe(req standing.Request) (*standing.Sub, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	sub, err := s.src.Subscribe(req)
	if err != nil {
		return nil, err
	}
	if err := s.track(sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// ResumeSubscription reattaches to a subscription, replaying retained
// deltas newer than from (see standing.Registry.Resume).
func (s *Service) ResumeSubscription(id, from uint64) (*standing.Sub, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	sub, err := s.src.ResumeSubscription(id, from)
	if err != nil {
		return nil, err
	}
	if err := s.track(sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// Unsubscribe removes and terminates a subscription by id.
func (s *Service) Unsubscribe(id uint64) bool {
	s.untrack(id)
	return s.src.Unsubscribe(id)
}

// track records a live subscription for Close; if Close already ran
// (or runs concurrently), the subscription is terminated here instead
// of leaking past shutdown.
func (s *Service) track(sub *standing.Sub) error {
	s.subsMu.Lock()
	if s.subsClosed {
		s.subsMu.Unlock()
		sub.Close()
		return ErrClosed
	}
	if s.subs == nil {
		s.subs = map[uint64]*standing.Sub{}
	}
	s.subs[sub.ID()] = sub
	s.subsMu.Unlock()
	return nil
}

func (s *Service) untrack(id uint64) {
	s.subsMu.Lock()
	delete(s.subs, id)
	s.subsMu.Unlock()
}

// CloseSubscriptions terminates every tracked subscription without
// stopping the worker pool: blocked Next calls (and the SSE/long-poll
// handlers driving them) unblock with a terminal error, and later
// Subscribe calls fail closed. It is the first step of a graceful
// HTTP shutdown — the long-lived /subscribe streams must end before
// http.Server.Shutdown can drain its connections. Idempotent; Close
// runs it too, as its final step.
func (s *Service) CloseSubscriptions() { s.closeSubscriptions() }

func (s *Service) closeSubscriptions() {
	s.subsMu.Lock()
	s.subsClosed = true
	subs := s.subs
	s.subs = nil
	s.subsMu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// SubscribeQuery is one decoded GET /subscribe request: either a new
// subscription (Req) or a resume (Resume with ID/From).
type SubscribeQuery struct {
	// Req is the registration for new subscriptions (ignored on
	// resume).
	Req standing.Request
	// Mode is "sse" (default) or "poll".
	Mode string
	// Resume marks a reconnect: ID names the subscription and From the
	// last version the client saw.
	Resume   bool
	ID, From uint64
	// Wait bounds one long-poll round (poll mode only).
	Wait time.Duration
}

// Subscribe endpoint bounds: one poll round waits at most maxPollWait
// (default defaultPollWait), one poll response carries at most
// maxPollDeltas deltas, and SSE connections heartbeat every
// sseHeartbeat of silence.
const (
	defaultPollWait = 30 * time.Second
	maxPollWait     = 5 * time.Minute
	maxPollDeltas   = 64
	sseHeartbeat    = 15 * time.Second
)

// DecodeSubscribeRequest validates and decodes GET /subscribe query
// parameters:
//
//	expr, subject, object  a 2RPQ standing query
//	pattern                a graph-pattern standing query
//	snapshot=true          deliver the current result set first
//	queue=N                per-subscription pending-queue override
//	id=N&from=V            resume subscription N after version V
//	mode=sse|poll          delivery transport (default sse)
//	wait=30s               one long-poll round's bound (poll mode)
func DecodeSubscribeRequest(vals url.Values) (SubscribeQuery, error) {
	var q SubscribeQuery
	q.Mode = vals.Get("mode")
	switch q.Mode {
	case "":
		q.Mode = "sse"
	case "sse", "poll":
	default:
		return q, fmt.Errorf("bad mode %q (want sse or poll)", q.Mode)
	}
	q.Wait = defaultPollWait
	if w := vals.Get("wait"); w != "" {
		d, err := time.ParseDuration(w)
		if err != nil {
			return q, fmt.Errorf("bad wait: %w", err)
		}
		if d <= 0 {
			return q, errors.New("wait must be positive")
		}
		if d > maxPollWait {
			d = maxPollWait
		}
		q.Wait = d
	}

	expr, pattern := vals.Get("expr"), vals.Get("pattern")
	if id := vals.Get("id"); id != "" {
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			return q, fmt.Errorf("bad id: %w", err)
		}
		from := vals.Get("from")
		if from == "" {
			return q, errors.New("resume needs from=<last seen version>")
		}
		v, err := strconv.ParseUint(from, 10, 64)
		if err != nil {
			return q, fmt.Errorf("bad from: %w", err)
		}
		if expr != "" || pattern != "" {
			return q, errors.New("resume takes no expr or pattern")
		}
		q.Resume, q.ID, q.From = true, n, v
		return q, nil
	}
	if vals.Get("from") != "" {
		return q, errors.New("from needs id=<subscription>")
	}

	switch {
	case expr == "" && pattern == "":
		return q, errors.New("missing expr or pattern")
	case expr != "" && pattern != "":
		return q, errors.New("expr and pattern are mutually exclusive")
	case pattern != "" && (vals.Get("subject") != "" || vals.Get("object") != ""):
		return q, errors.New("pattern subscriptions take no subject or object")
	}
	q.Req = standing.Request{
		Subject: vals.Get("subject"),
		Object:  vals.Get("object"),
		Expr:    expr,
		Pattern: pattern,
	}
	if snap := vals.Get("snapshot"); snap != "" {
		b, err := strconv.ParseBool(snap)
		if err != nil {
			return q, fmt.Errorf("bad snapshot: %w", err)
		}
		q.Req.Snapshot = b
	}
	if qd := vals.Get("queue"); qd != "" {
		n, err := strconv.Atoi(qd)
		if err != nil || n <= 0 {
			return q, errors.New("queue must be a positive integer")
		}
		q.Req.QueueDepth = n
	}
	return q, nil
}

// DeltaJSON is the wire form of one standing.Delta (SSE delta events
// and items of poll responses).
type DeltaJSON struct {
	Version     uint64         `json:"version"`
	Added       []SolutionJSON `json:"added,omitempty"`
	Removed     []SolutionJSON `json:"removed,omitempty"`
	AddedRows   [][]string     `json:"added_rows,omitempty"`
	RemovedRows [][]string     `json:"removed_rows,omitempty"`
}

func toDeltaJSON(d standing.Delta) DeltaJSON {
	out := DeltaJSON{
		Version:     d.Version,
		AddedRows:   d.AddedRows,
		RemovedRows: d.RemovedRows,
	}
	conv := func(ps []standing.Pair) []SolutionJSON {
		if len(ps) == 0 {
			return nil
		}
		sols := make([]SolutionJSON, len(ps))
		for i, p := range ps {
			sols[i] = SolutionJSON{Subject: p.Subject, Object: p.Object}
		}
		return sols
	}
	out.Added = conv(d.Added)
	out.Removed = conv(d.Removed)
	return out
}

// SubscribeResultJSON is the wire form of one long-poll round. Version
// is the resume cursor: pass it back as from= on the next poll (or an
// SSE reconnect).
type SubscribeResultJSON struct {
	ID      uint64      `json:"id"`
	Version uint64      `json:"version"`
	Vars    []string    `json:"vars,omitempty"`
	Deltas  []DeltaJSON `json:"deltas,omitempty"`
	// Lagged reports dropped deltas: resume from the last version this
	// client actually processed to replay them from history.
	Lagged bool `json:"lagged,omitempty"`
	// Closed reports a terminated subscription (unsubscribed, expired
	// or server shutdown); Error carries the cause.
	Closed bool   `json:"closed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// subscribeStatus maps subscription failures to HTTP statuses.
func subscribeStatus(err error) int {
	switch {
	case errors.Is(err, standing.ErrUnknownSubscription):
		return http.StatusNotFound
	case errors.Is(err, standing.ErrTooOld):
		return http.StatusGone
	case errors.Is(err, standing.ErrFutureVersion):
		return http.StatusConflict
	case errors.Is(err, standing.ErrClosed), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// subscribe serves GET /subscribe: register (or resume) a standing
// query and stream its deltas over SSE or return them in long-poll
// rounds.
func (h *handler) subscribe(w http.ResponseWriter, r *http.Request) {
	sq, err := DecodeSubscribeRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var sub *standing.Sub
	cursor := sq.From
	if sq.Resume {
		sub, err = h.s.ResumeSubscription(sq.ID, sq.From)
	} else {
		sub, err = h.s.Subscribe(sq.Req)
		if err == nil {
			cursor = sub.StartVersion()
		}
	}
	if err != nil {
		writeError(w, subscribeStatus(err), err)
		return
	}
	if sq.Mode == "poll" {
		h.pollSubscription(w, r, sub, cursor, sq.Wait)
		return
	}
	h.sseSubscription(w, r, sub, cursor)
}

// unsubscribe serves DELETE /subscribe?id=N.
func (h *handler) unsubscribe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	if !h.s.Unsubscribe(id) {
		writeError(w, http.StatusNotFound, standing.ErrUnknownSubscription)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "unsubscribed": true})
}

// pollSubscription runs one long-poll round: wait up to the round's
// bound for a delta, drain whatever else is ready, detach (the
// subscription keeps accumulating for the next poll) and respond.
func (h *handler) pollSubscription(w http.ResponseWriter, r *http.Request, sub *standing.Sub, cursor uint64, wait time.Duration) {
	// A poll round may legitimately outwait the server's WriteTimeout;
	// push the write deadline past this round's bound (best-effort —
	// recorders and servers without deadline support just decline).
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(wait + 30*time.Second)) //nolint:errcheck
	out := SubscribeResultJSON{ID: sub.ID(), Version: cursor, Vars: sub.Vars()}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	d, err := sub.Next(ctx)
	cancel()
	switch {
	case err == nil:
		out.Deltas = append(out.Deltas, toDeltaJSON(d))
		out.Version = d.Version
		for len(out.Deltas) < maxPollDeltas {
			d, ok, derr := sub.TryNext()
			if !ok {
				if errors.Is(derr, standing.ErrLagged) {
					out.Lagged = true
				}
				break
			}
			out.Deltas = append(out.Deltas, toDeltaJSON(d))
			out.Version = d.Version
		}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// An empty round: the client polls again from the same cursor.
	case errors.Is(err, standing.ErrLagged):
		out.Lagged = true
	default:
		out.Closed = true
		out.Error = err.Error()
		h.s.untrack(sub.ID())
		writeJSON(w, http.StatusOK, out)
		return
	}
	sub.Detach()
	writeJSON(w, http.StatusOK, out)
}

// sseSubscription streams deltas as server-sent events until the
// client disconnects (the subscription detaches, resumable via
// id/from) or the subscription terminates (a final closed event).
// Quiet periods are bridged with comment heartbeats so dead
// connections are detected.
func (h *handler) sseSubscription(w http.ResponseWriter, r *http.Request, sub *standing.Sub, cursor uint64) {
	if _, ok := w.(http.Flusher); !ok {
		sub.Detach()
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	rc := http.NewResponseController(w)
	// The stream deliberately outlives any server-wide WriteTimeout;
	// dead peers are detected per frame by send below instead.
	rc.SetWriteDeadline(time.Time{}) //nolint:errcheck
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// send writes one SSE frame and flushes it, reporting failure: an
	// aborted client surfaces as a write (or flush) error long before
	// the request context fires, and a heartbeat-quiet stream with a
	// dead peer would otherwise buffer events forever. Callers must
	// stop streaming on failure.
	send := func(format string, args ...any) bool {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	ready, _ := json.Marshal(SubscribeResultJSON{ID: sub.ID(), Version: cursor, Vars: sub.Vars()})
	if !send("event: ready\ndata: %s\n\n", ready) {
		sub.Detach()
		return
	}
	for {
		hb, cancel := context.WithTimeout(r.Context(), sseHeartbeat)
		d, err := sub.Next(hb)
		cancel()
		switch {
		case err == nil:
			data, _ := json.Marshal(toDeltaJSON(d))
			if !send("id: %d\nevent: delta\ndata: %s\n\n", d.Version, data) {
				// Broken pipe: tear down promptly, resumable via id/from.
				sub.Detach()
				return
			}
		case r.Context().Err() != nil:
			// Client gone: keep the subscription resumable.
			sub.Detach()
			return
		case errors.Is(err, context.DeadlineExceeded):
			if !send(": keep-alive\n\n") {
				sub.Detach()
				return
			}
		case errors.Is(err, standing.ErrLagged):
			// The client should reconnect with from=<last event id> to
			// replay the dropped deltas from history. Best-effort write:
			// the subscription detaches either way.
			send("event: lagged\ndata: {\"resume\":true}\n\n")
			sub.Detach()
			return
		default:
			msg, _ := json.Marshal(SubscribeResultJSON{ID: sub.ID(), Closed: true, Error: err.Error()})
			send("event: closed\ndata: %s\n\n", msg)
			h.s.untrack(sub.ID())
			return
		}
	}
}
