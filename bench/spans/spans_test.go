package spans

import (
	"math"
	"testing"
	"time"
)

func node(kind string, start, dur float64, children ...*Node) *Node {
	return &Node{Kind: kind, StartUS: start, DurationUS: dur, Children: children}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		n    *Node
		want float64
	}{
		{"leaf", node("eval", 0, 100), 100},
		{"disjoint children", node("request", 0, 100, node("compile", 10, 20), node("eval", 40, 50)), 30},
		// Two children covering [10,40) and [30,60): 50 µs once, not 60.
		{"overlapping children", node("request", 0, 100, node("queue_wait", 10, 30), node("eval", 30, 30)), 50},
		// A child that started before its parent (queue wait is timed
		// from enqueue) and one running past its end are clipped.
		{"clipped children", node("eval", 50, 100, node("queue_wait", 0, 70), node("traverse", 140, 50)), 70},
		{"child outside", node("eval", 50, 10, node("level", 0, 20)), 10},
	} {
		if got := c.n.SelfUS(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: SelfUS = %v, want %v", c.name, got, c.want)
		}
	}
}

// The self times of a tree partition the root's duration, so summed by
// kind they account for all of it.
func TestAnalyzeAddsUpToRoot(t *testing.T) {
	root := node("request", 5, 1000,
		node("compile", 10, 40),
		node("result_cache", 60, 5),
		node("queue_wait", 70, 30),
		node("eval", 100, 800,
			node("traverse", 150, 700,
				&Node{Kind: "level", StartUS: 160, DurationUS: 300, Attrs: map[string]int64{"frontier": 1, "wavelet_visits": 40}},
				&Node{Kind: "level", StartUS: 470, DurationUS: 350, Attrs: map[string]int64{"frontier": 9, "wavelet_visits": 60}})),
		node("serialize", 910, 90))
	st := Analyze(root)
	sum := 0.0
	for _, v := range st.SelfUS {
		sum += v
	}
	if math.Abs(sum-st.RootUS) > 1e-9 || st.RootUS != 1000 {
		t.Fatalf("self times sum to %v, root is %v", sum, st.RootUS)
	}
	if st.Count["level"] != 2 || st.Attr["level.wavelet_visits"] != 100 {
		t.Fatalf("counts %v attrs %v", st.Count, st.Attr)
	}
	if st.SelfUS["traverse"] != 50 || st.SelfUS["eval"] != 100 {
		t.Fatalf("self %v", st.SelfUS)
	}
}

func TestGraftCentresServerTree(t *testing.T) {
	rec := NewRecorder()
	start := time.Now()
	req := rec.Add(7, "client.request", -1, start, 1200*time.Microsecond, nil)
	rt := rec.Add(7, "http.roundtrip", req, start, 1000*time.Microsecond, nil)
	rec.Graft(7, rt, node("request", 3, 600, node("eval", 103, 100)))
	if rec.Len() != 4 {
		t.Fatalf("recorded %d spans, want 4", rec.Len())
	}
	root, eval := rec.spans[2], rec.spans[3]
	if root.Name != "server.request" || root.Parent != rt || eval.Parent != 2 || eval.Op != 7 {
		t.Fatalf("bad graft: %+v %+v", root, eval)
	}
	// 1000 µs round trip, 600 µs server root: 200 µs either side.
	if off := root.StartUS - rec.spans[rt].StartUS; math.Abs(off-200) > 1e-6 {
		t.Fatalf("server root placed %v µs into the round trip, want 200", off)
	}
	if off := eval.StartUS - root.StartUS; math.Abs(off-100) > 1e-6 {
		t.Fatalf("child offset %v, want 100", off)
	}
}
