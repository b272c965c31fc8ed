package obs

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// Every value must land in a bucket whose bounds contain it, and
// bucket upper bounds must be strictly increasing.
func TestBucketBounds(t *testing.T) {
	prev := int64(-1)
	for i := 0; i <= histClamp; i++ {
		u := bucketUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d upper %d not > previous %d", i, u, prev)
		}
		prev = u
	}
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 999, 12345, 1 << 20, 1<<40 + 3, 1<<62 + 1} {
		idx := bucketOf(v)
		if u := bucketUpper(idx); v > u {
			t.Errorf("value %d above bucket %d upper %d", v, idx, u)
		}
		if idx > 0 {
			if lo := bucketUpper(idx - 1); v <= lo {
				t.Errorf("value %d at or below bucket %d lower bound %d", v, idx, lo)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.ExpFloat64() * float64(5*time.Millisecond))
		h.Observe(time.Duration(vals[i]))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if got, want := int64(s.Quantile(1)), vals[len(vals)-1]; got != want {
		t.Errorf("max quantile = %d, want exact max %d", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := float64(s.Quantile(q))
		exact := float64(vals[int(q*float64(len(vals)))])
		// Log-bucketing guarantees ≤ 1/histSub relative overshoot.
		if got < exact || got > exact*(1+2.0/histSub)+1 {
			t.Errorf("q%.2f = %.0f, exact %.0f: outside error bound", q, got, exact)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var s HistSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("empty snapshot should report zeros")
	}
	var h *Histogram
	h.Observe(time.Second) // nil-safe
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot should be empty")
	}
}

func TestTraceNesting(t *testing.T) {
	tr := New()
	root := tr.Begin(SpanRequest)
	ev := tr.Begin(SpanEval)
	lv := tr.Begin(SpanLevel)
	tr.EndVals(lv, 7, 42)
	tr.End(ev)
	tr.Add(SpanSerialize, time.Now().Add(-time.Millisecond))
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 1 {
		t.Errorf("bad parents: %d %d %d", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[3].Parent != 0 {
		t.Errorf("Add should parent under the open root, got %d", spans[3].Parent)
	}

	p := tr.Render()
	if len(p.Spans) != 1 || p.Spans[0].Kind != "request" {
		t.Fatalf("want a single request root, got %+v", p.Spans)
	}
	evNode := p.Spans[0].Children[0]
	if evNode.Kind != "eval" || len(evNode.Children) != 1 {
		t.Fatalf("want eval with one child, got %+v", evNode)
	}
	level := evNode.Children[0]
	if level.Attrs["frontier"] != 7 || level.Attrs["wavelet_visits"] != 42 {
		t.Errorf("level attrs = %v", level.Attrs)
	}
	if p.TotalUS <= 0 {
		t.Error("TotalUS should be positive")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := New()
	for i := 0; i < maxSpans+50; i++ {
		tr.End(tr.Begin(SpanLevel))
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Errorf("spans = %d, want cap %d", got, maxSpans)
	}
	if got := tr.Render().DroppedSpans; got != 50 {
		t.Errorf("dropped = %d, want 50", got)
	}
}

// Disabled telemetry must be free: nil receivers and a trace-less
// context add zero allocations on the hot path.
func TestNilTelemetryZeroAllocs(t *testing.T) {
	var tr *Trace
	var h *Histogram
	var sl *SlowLog
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		idx := tr.Begin(SpanLevel)
		tr.EndVals(idx, 1, 2)
		tr.Add(SpanQueueWait, time.Time{})
		h.Observe(time.Millisecond)
		sl.Record(SlowEntry{Total: time.Hour})
		if FromContext(ctx) != nil {
			t.Fatal("unexpected trace")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry allocated %.1f per run, want 0", allocs)
	}
}

func TestTraceContext(t *testing.T) {
	tr := New()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip through context")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Error("attaching nil should return the context unchanged")
	}
}

func TestSlowLog(t *testing.T) {
	if NewSlowLog(0, 8, nil) != nil {
		t.Fatal("threshold 0 should disable the log")
	}
	l := NewSlowLog(10*time.Millisecond, 3, nil)
	l.Record(SlowEntry{Kind: "fast", Total: time.Millisecond})
	for i := 0; i < 5; i++ {
		l.Record(SlowEntry{Kind: "slow", Results: i, Total: time.Second})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want ring cap 3", len(got))
	}
	for i, e := range got {
		if want := 4 - i; e.Results != want {
			t.Errorf("entry %d: results = %d, want %d (newest first)", i, e.Results, want)
		}
	}
	if l.Total() != 5 {
		t.Errorf("total = %d, want 5", l.Total())
	}

	// Partially-filled ring is returned newest first too.
	l2 := NewSlowLog(time.Nanosecond, 8, nil)
	l2.Record(SlowEntry{Results: 1, Total: time.Second})
	l2.Record(SlowEntry{Results: 2, Total: time.Second})
	if e := l2.Entries(); len(e) != 2 || e[0].Results != 2 {
		t.Errorf("partial ring entries = %+v", e)
	}
}

func TestRegistryExposition(t *testing.T) {
	var r Registry
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	r.Register(func(e *Exposition) {
		e.Counter("test_requests_total", "requests", 42)
		e.Gauge("test_queue_len", "queue", 3)
		e.Info("test_build_info", "build", map[string]string{"policy": "always"})
		e.Histogram("test_latency_seconds", "latency", h.Snapshot())
	})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
		"# TYPE test_queue_len gauge",
		`test_build_info{policy="always"} 1`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTraceAddBeforeOrigin: a span added from before the trace began
// (a request body decoded before the request was known to be
// profiled) moves the origin back to its start, and the open root
// starts there with it, so the root covers the added span.
func TestTraceAddBeforeOrigin(t *testing.T) {
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	tr := New()
	root := tr.Begin(SpanRequest)
	tr.Add(SpanDecode, start)
	tr.End(tr.Begin(SpanEval))
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Kind != SpanDecode || spans[1].Parent != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Start != 0 || spans[1].Start != 0 {
		t.Errorf("root starts at %v, decode at %v; want both at the moved origin", spans[0].Start, spans[1].Start)
	}
	if d := spans[1].Duration(); d < 2*time.Millisecond || spans[1].End > spans[2].Start || spans[2].End > spans[0].End {
		t.Errorf("decode lasts %v and ends at %v; eval [%v, %v]; root ends at %v", d, spans[1].End, spans[2].Start, spans[2].End, spans[0].End)
	}
	if p := tr.Render(); p.Spans[0].Children[0].Kind != "decode" || p.TotalUS < 2000 {
		t.Errorf("rendered %+v", p.Spans[0])
	}
}
