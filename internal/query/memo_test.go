package query

import (
	"fmt"
	"sort"
	"testing"

	"ringrpq/internal/datagen"
	"ringrpq/internal/obs"
	"ringrpq/internal/ring"
	"ringrpq/internal/workload"
)

// planHit returns the hit attribute of a traced Run's plan span, or -1
// when the trace holds no plan span carrying one.
func planHit(tr *obs.Trace) int64 {
	for _, n := range tr.Render().Spans {
		if n.Kind == "plan" {
			if hit, ok := n.Attrs["hit"]; ok {
				return hit
			}
		}
	}
	return -1
}

// memoPool returns n distinct patterns over datagen's names, each a
// constant-anchored triple pattern joined to a closure, so that every
// one is cheap to plan and to run on a small graph.
func memoPool(n, preds int) []*Query {
	out := make([]*Query, n)
	for i := range out {
		out[i] = MustParse(fmt.Sprintf("?x %s %s . ?x %s* ?y",
			datagen.PredName(i%preds), datagen.NodeName(i/preds), datagen.PredName((i+1)%preds)))
	}
	return out
}

// runRows runs q on x and returns its rows as sorted strings.
func runRows(t *testing.T, x *Exec, q *Query, opts Options) []string {
	t.Helper()
	var rows []string
	if err := x.Run(q, opts, func(row []uint32) bool {
		rows = append(rows, fmt.Sprint(row))
		return true
	}); err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	sort.Strings(rows)
	return rows
}

func TestPlanSpanReportsMemoHit(t *testing.T) {
	g := orgGraph()
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	q := MustParse("?m manages ?e . ?e assigned ?p . ?m manages+ ?r")
	for want := int64(0); want <= 1; want++ {
		tr := obs.New()
		runRows(t, x, q, Options{Trace: tr})
		if got := planHit(tr); got != want {
			t.Fatalf("run %d: plan span hit = %d, want %d", want+1, got, want)
		}
	}
}

// TestPlanMemoHoldsPool runs a 300-pattern pool through one Exec
// twice: the second pass must reuse every plan of the first. Past
// maxPlans distinct patterns the memo is dropped whole, stays bounded,
// and answers as a fresh Exec does.
func TestPlanMemoHoldsPool(t *testing.T) {
	const preds = 4
	g := datagen.Generate(datagen.Config{Seed: 7, Nodes: 400, Edges: 1600, Preds: preds})
	r := ring.New(g, ring.WaveletMatrix)
	x := NewExec(g, r)

	pool := memoPool(300, preds)
	first := make([]*Plan, len(pool))
	for i, q := range pool {
		runRows(t, x, q, Options{})
		if first[i] = x.plans[q.String()]; first[i] == nil {
			t.Fatalf("pattern %q was not memoised", q)
		}
	}
	for i, q := range pool {
		tr := obs.New()
		runRows(t, x, q, Options{Trace: tr})
		if hit := planHit(tr); hit != 1 {
			t.Fatalf("second pass, pattern %q: plan span hit = %d, want 1", q, hit)
		}
		if pl := x.plans[q.String()]; pl != first[i] {
			t.Fatalf("second pass, pattern %q: plan %p, want the memoised %p", q, pl, first[i])
		}
	}

	for _, q := range memoPool(maxPlans+1, preds) {
		got := runRows(t, x, q, Options{})
		if n := len(x.plans); n > maxPlans {
			t.Fatalf("memo holds %d plans, bound %d", n, maxPlans)
		}
		if want := runRows(t, NewExec(g, r), q, Options{}); !eqStrings(got, want) {
			t.Fatalf("pattern %q: %d rows, a fresh Exec gives %d", q, len(got), len(want))
		}
	}
}

// BenchmarkExecRunPool cycles 300 distinct generated patterns through
// one Exec: after the warm pass every Run finds its plan memoised, so
// this times (and counts the allocations of) the memo-hit path a
// service worker takes. The graph is small so that planning is not
// buried under join work.
func BenchmarkExecRunPool(b *testing.B) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 300, Edges: 900, Preds: 8})
	x := NewExec(g, ring.New(g, ring.WaveletMatrix))
	var pool []*Query
	for _, p := range workload.GeneratePatterns(g, workload.PatternConfig{Seed: 1, Total: 300}) {
		pool = append(pool, MustParse(p.Text))
	}
	opts := Options{Limit: 100}
	emit := func([]uint32) bool { return true }
	for _, q := range pool {
		if err := x.Run(q, opts, emit); err != nil {
			b.Fatalf("Run(%q): %v", q, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Run(pool[i%len(pool)], opts, emit); err != nil {
			b.Fatal(err)
		}
	}
}
