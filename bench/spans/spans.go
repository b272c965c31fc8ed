// Package spans is the benchmark's side of tracing. It reads the span
// trees rpqd returns for "profile": true requests, works out each
// span's self time, records the harness's own spans around every call
// it makes, and writes the lot to one file when the run ends.
package spans

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Node is one span of a server profile tree, in rpqd's wire form.
type Node struct {
	Kind       string           `json:"kind"`
	StartUS    float64          `json:"start_us"`
	DurationUS float64          `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*Node          `json:"children,omitempty"`
}

// Profile is the "profile" member of a profiled response.
type Profile struct {
	TotalUS      float64 `json:"total_us"`
	DroppedSpans int     `json:"dropped_spans,omitempty"`
	Spans        []*Node `json:"spans"`
}

// Root returns the request span of the profile, or nil.
func (p *Profile) Root() *Node {
	if p == nil || len(p.Spans) == 0 {
		return nil
	}
	return p.Spans[0]
}

// SelfUS is the span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent and overlapping
// children are counted once, so the self times of a tree add up to the
// root's duration whatever the children's layout.
func (n *Node) SelfUS() float64 {
	type iv struct{ lo, hi float64 }
	lo, hi := n.StartUS, n.StartUS+n.DurationUS
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		a, b := max(c.StartUS, lo), min(c.StartUS+c.DurationUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return n.DurationUS - covered
}

// OpStats is what one op's server tree says per span kind.
type OpStats struct {
	RootUS float64
	// SelfUS sums self time over the spans of a kind; Count counts them.
	SelfUS map[string]float64
	Count  map[string]int
	// Attr sums an attribute over the spans of a kind, keyed "kind.attr".
	Attr map[string]int64
}

// Analyze walks one tree.
func Analyze(root *Node) OpStats {
	st := OpStats{RootUS: root.DurationUS, SelfUS: map[string]float64{}, Count: map[string]int{}, Attr: map[string]int64{}}
	var walk func(n *Node)
	walk = func(n *Node) {
		st.SelfUS[n.Kind] += n.SelfUS()
		st.Count[n.Kind]++
		for k, v := range n.Attrs {
			st.Attr[n.Kind+"."+k] += v
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return st
}

// Span is one span of the trace file. Spans of one op share its Op id;
// Parent indexes the file's span list (-1 for a root). Starts are
// microseconds since the recorder was made. A grafted server span keeps
// its own duration but its start is only placed, not measured: the
// server's clock origin is unknown, so its tree is centred in the round
// trip that carried it.
type Span struct {
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	Parent  int              `json:"parent"`
	StartUS float64          `json:"start_us"`
	DurUS   float64          `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// Recorder keeps spans in memory until WriteFile.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Add records a finished span and returns its index.
func (r *Recorder) Add(op int, name string, parent int, start time.Time, dur time.Duration, attrs map[string]int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		Op: op, Name: name, Parent: parent,
		StartUS: float64(start.Sub(r.t0)) / 1e3, DurUS: float64(dur) / 1e3, Attrs: attrs,
	})
	return len(r.spans) - 1
}

// Graft hangs a server tree beneath the recorded span parent.
func (r *Recorder) Graft(op, parent int, root *Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	shift := p.StartUS + (p.DurUS-root.DurationUS)/2 - root.StartUS
	var walk func(n *Node, parent int)
	walk = func(n *Node, parent int) {
		r.spans = append(r.spans, Span{
			Op: op, Name: "server." + n.Kind, Parent: parent,
			StartUS: n.StartUS + shift, DurUS: n.DurationUS, Attrs: n.Attrs,
		})
		me := len(r.spans) - 1
		for _, c := range n.Children {
			walk(c, me)
		}
	}
	walk(root, parent)
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// WriteFile writes {"summary": summary, "spans": [...]} to path.
func (r *Recorder) WriteFile(path string, summary any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Summary any    `json:"summary"`
		Spans   []Span `json:"spans"`
	}{summary, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
