package load

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/bench/oplog"
)

// Client sends op-log requests to one server over keep-alive
// connections.
type Client struct {
	base string
	hc   *http.Client
	// ref, when set, holds one piece of reference work per connection;
	// a pass's worker runs its own after every reply (see refWork).
	ref []*refWork
}

// NewClient returns a client for the server at base holding up to conns
// idle connections.
func NewClient(base string, conns int) *Client {
	return &Client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
}

// WithRefWork makes every pass of the client interleave reference work
// with its requests on each of conns connections, and returns the
// client.
func (c *Client) WithRefWork(conns int) *Client {
	for i := 0; i < conns; i++ {
		c.ref = append(c.ref, newRefWork())
	}
	return c
}

// Close drops the client's idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Request is one op ready to send.
type Request struct {
	Path string
	Body []byte
}

// Prepare renders the op log into requests once, outside any timed
// region.
func Prepare(ops []oplog.Op, profile bool) []Request {
	out := make([]Request, len(ops))
	for i, op := range ops {
		out[i] = Request{Path: op.Kind.Path(), Body: op.Body(profile && op.IsRead())}
	}
	return out
}

// Reply is the outcome of one request as the client saw it.
type Reply struct {
	// Start and Latency span the call from just before the request is
	// written to the last byte of the response body.
	Start   time.Time
	Latency time.Duration
	// OK is true for a complete answer: 200 and a fully read body. A
	// transport error, a non-2xx status and 206 (a deadline-truncated
	// answer) are all failures.
	OK    bool
	Bytes int
	// Body is retained only when the caller asked for it.
	Body []byte
}

// Do sends one request. buf is the caller's scratch for the response.
func (c *Client) Do(ctx context.Context, r Request, keep bool, buf *bytes.Buffer) Reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return Reply{Start: time.Now()}
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return Reply{Start: start, Latency: time.Since(start)}
	}
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	rep := Reply{Start: start, Latency: time.Since(start), Bytes: buf.Len()}
	rep.OK = err == nil && resp.StatusCode == http.StatusOK
	if keep {
		rep.Body = append([]byte(nil), buf.Bytes()...)
	}
	return rep
}

// Pass executes every request exactly once in a closed loop: conns
// workers, one connection each, pull the next index from a shared
// cursor and wait for each reply before taking another. It returns the
// replies by op index and the wall time of the whole pass. keep selects
// the ops whose response bodies are retained (nil keeps none).
func (c *Client) Pass(ctx context.Context, reqs []Request, conns int, keep func(i int) bool) ([]Reply, time.Duration) {
	replies := make([]Reply, len(reqs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				replies[i] = c.Do(ctx, reqs[i], keep != nil && keep(i), &buf)
				if c.ref != nil {
					c.ref[w].run()
				}
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// latenciesMS extracts the per-op latencies of a pass in milliseconds.
func latenciesMS(replies []Reply) []float64 {
	out := make([]float64, len(replies))
	for i, r := range replies {
		out[i] = float64(r.Latency) / 1e6
	}
	return out
}

// failures counts the replies that are not complete answers.
func failures(replies []Reply) int {
	n := 0
	for _, r := range replies {
		if !r.OK {
			n++
		}
	}
	return n
}
