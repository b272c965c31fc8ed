// Package obs is the zero-dependency telemetry core: per-request span
// traces, lock-cheap log-bucketed latency histograms, a bounded
// structured slow-query log, and a Prometheus-text metrics registry.
//
// Every entry point is nil-safe: a nil *Trace, *Histogram or *SlowLog
// turns the call into a no-op without allocating, so instrumented hot
// paths pay only a pointer test when telemetry is disabled.
package obs

import (
	"context"
	"sync"
	"time"
)

// SpanKind names an instrumented stage of request processing.
type SpanKind uint8

const (
	SpanRequest SpanKind = iota // whole request, root
	SpanQueueWait
	SpanResultCache
	SpanExprCache
	SpanPatternCache
	SpanCompile
	SpanPlan
	SpanEval     // one backend evaluation (2RPQ or pattern)
	SpanTraverse // one product-graph traversal inside an eval
	SpanLevel    // one BFS level of a traversal
	SpanLTJ      // leapfrog-triejoin pipeline
	SpanRPQStep  // one RPQ clause step inside a pattern pipeline
	SpanWALAppend
	SpanWALFsync
	SpanStandingNotify
	SpanSerialize
	SpanUpdate
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanRequest:        "request",
	SpanQueueWait:      "queue_wait",
	SpanResultCache:    "result_cache",
	SpanExprCache:      "expr_cache",
	SpanPatternCache:   "pattern_cache",
	SpanCompile:        "compile",
	SpanPlan:           "plan",
	SpanEval:           "eval",
	SpanTraverse:       "traverse",
	SpanLevel:          "level",
	SpanLTJ:            "ltj_join",
	SpanRPQStep:        "rpq_step",
	SpanWALAppend:      "wal_append",
	SpanWALFsync:       "wal_fsync",
	SpanStandingNotify: "standing_notify",
	SpanSerialize:      "serialize",
	SpanUpdate:         "update",
}

// spanAttrNames maps each kind's value slots to attribute names in the
// rendered profile. Unlisted slots are dropped.
var spanAttrNames = [numSpanKinds][4]string{
	SpanResultCache:    {"hit"},
	SpanExprCache:      {"hit"},
	SpanPatternCache:   {"hit"},
	SpanEval:           {"results"},
	SpanTraverse:       {"product_nodes", "product_edges", "wavelet_visits", "results"},
	SpanLevel:          {"frontier", "wavelet_visits"},
	SpanLTJ:            {"rows", "seeks", "binds"},
	SpanRPQStep:        {"results"},
	SpanWALAppend:      {"bytes"},
	SpanStandingNotify: {"subscriptions"},
	SpanSerialize:      {"bytes"},
	SpanUpdate:         {"adds", "dels"},
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one recorded stage: [Start, End) as offsets from the trace
// origin, a parent index (-1 for roots), and up to four typed values
// whose meaning depends on Kind.
type Span struct {
	Kind   SpanKind
	NVals  uint8
	Parent int32
	Start  time.Duration
	End    time.Duration
	Vals   [4]int64
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// maxSpans bounds a trace so pathological queries (thousands of BFS
// levels or RPQ steps) cannot grow memory without bound; overflow is
// counted in Dropped instead.
const maxSpans = 2048

// Trace records the typed span tree for a single profiled request.
// It is carried through the stack via context.Context (NewContext /
// FromContext); a nil *Trace is valid everywhere and records nothing.
type Trace struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []Span
	stack   []int32 // open span indices, innermost last
	dropped int
}

// New starts an empty trace whose clock origin is now.
func New() *Trace {
	return &Trace{t0: time.Now(), spans: make([]Span, 0, 64)}
}

// Begin opens a span of the given kind, parented under the innermost
// open span, and returns its index for End/EndVals. Returns -1 (a
// valid no-op handle) on a nil trace or when the span cap is reached.
func (t *Trace) Begin(kind SpanKind) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{Kind: kind, Parent: parent, Start: now, End: -1})
	t.stack = append(t.stack, int32(idx))
	return idx
}

// End closes the span returned by Begin. End(-1) is a no-op.
func (t *Trace) End(idx int) { t.EndVals(idx) }

// EndVals closes a span and attaches up to four kind-specific values.
func (t *Trace) EndVals(idx int, vals ...int64) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= len(t.spans) {
		return
	}
	s := &t.spans[idx]
	s.End = now
	for i, v := range vals {
		if i >= len(s.Vals) {
			break
		}
		s.Vals[i] = v
		s.NVals = uint8(i + 1)
	}
	// Pop the open-span stack down past this span (it is normally the
	// top; out-of-order ends just unwind the abandoned tail).
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if int(top) == idx {
			break
		}
	}
}

// Add records an already-elapsed span that started at the given wall
// time and ends now — used for stages measured before the trace could
// be consulted (queue wait is timed from enqueue regardless).
func (t *Trace) Add(kind SpanKind, start time.Time, vals ...int64) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	off := start.Sub(t.t0)
	if off < 0 {
		off = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := Span{Kind: kind, Parent: parent, Start: off, End: end}
	for i, v := range vals {
		if i >= len(s.Vals) {
			break
		}
		s.Vals[i] = v
		s.NVals = uint8(i + 1)
	}
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans in creation order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports how many spans were discarded at the cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanNode is one node of the rendered span tree ("EXPLAIN ANALYZE"
// output), JSON-shaped for the /query profile response.
type SpanNode struct {
	Kind       string           `json:"kind"`
	StartUS    float64          `json:"start_us"`
	DurationUS float64          `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*SpanNode      `json:"children,omitempty"`
}

// Profile is the JSON payload returned for "profile": true requests.
type Profile struct {
	TotalUS      float64     `json:"total_us"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
	Spans        []*SpanNode `json:"spans"`
}

// Render materializes the span tree. Unclosed spans are clamped to the
// rendering instant.
func (t *Trace) Render() *Profile {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	nodes := make([]*SpanNode, len(spans))
	p := &Profile{DroppedSpans: dropped}
	for i, s := range spans {
		end := s.End
		if end < 0 {
			end = now
		}
		n := &SpanNode{
			Kind:       s.Kind.String(),
			StartUS:    float64(s.Start) / float64(time.Microsecond),
			DurationUS: float64(end-s.Start) / float64(time.Microsecond),
		}
		names := spanAttrNames[s.Kind]
		for v := 0; v < int(s.NVals); v++ {
			if names[v] == "" {
				continue
			}
			if n.Attrs == nil {
				n.Attrs = make(map[string]int64, s.NVals)
			}
			n.Attrs[names[v]] = s.Vals[v]
		}
		nodes[i] = n
		if s.Parent >= 0 && int(s.Parent) < i {
			nodes[s.Parent].Children = append(nodes[s.Parent].Children, n)
		} else {
			p.Spans = append(p.Spans, n)
			if e := n.StartUS + n.DurationUS; e > p.TotalUS {
				p.TotalUS = e
			}
		}
	}
	return p
}

type ctxKey struct{}

// NewContext attaches a trace to a context. Attaching nil returns the
// context unchanged, so callers can thread an optional trace blindly.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace, or nil when the request is not
// profiled. The nil result is itself usable with every Trace method.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
