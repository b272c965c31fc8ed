package harness

import (
	"strings"
	"testing"
	"time"

	"ringrpq/internal/datagen"
	"ringrpq/internal/workload"
)

func testSetup(t *testing.T) ( //nolint:unparam
	*Ring, *BFS, *ALP, *Relational, []workload.Query, int) {
	t.Helper()
	g := datagen.Generate(datagen.Config{Seed: 4, Nodes: 300, Edges: 1200, Preds: 12})
	qs := workload.Generate(g, workload.Config{Seed: 6, Total: 60})
	return NewRing(g), NewBFS(g), NewALP(g), NewRelational(g), qs, g.Len()
}

// All four systems must return identical result counts on every query —
// the benchmark is meaningless otherwise.
func TestSystemsAgreeOnCounts(t *testing.T) {
	rg, nb, ja, vr, qs, _ := testSetup(t)
	for _, q := range qs {
		base, timedOut, err := rg.Run(q, 0, 0)
		if err != nil || timedOut {
			t.Fatalf("ring on %s: n=%d timeout=%v err=%v", q, base, timedOut, err)
		}
		for _, sys := range []System{nb, ja, vr} {
			n, timedOut, err := sys.Run(q, 0, 30*time.Second)
			if err != nil {
				t.Fatalf("%s on %s: %v", sys.Name(), q, err)
			}
			if timedOut {
				t.Fatalf("%s timed out on %s", sys.Name(), q)
			}
			if n != base {
				t.Fatalf("%s on %s: %d results, ring says %d", sys.Name(), q, n, base)
			}
		}
	}
}

func TestRunAndRender(t *testing.T) {
	rg, nb, _, _, qs, edges := testSetup(t)
	qs = qs[:20]
	var reports []Report
	for _, sys := range []System{rg, nb} {
		rep, err := Run(sys, qs, 1000, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != len(qs) {
			t.Fatalf("%s: %d results, want %d", sys.Name(), len(rep.Results), len(qs))
		}
		reports = append(reports, rep)
	}

	t2 := RenderTable2(reports, edges)
	for _, want := range []string{"Space (B/edge)", "Average", "Median", "Timeouts", "Ring", "NavBFS"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, t2)
		}
	}
	f8 := RenderFig8(reports)
	if !strings.Contains(f8, "pattern") || !strings.Contains(f8, "Ring") {
		t.Fatalf("Fig 8 malformed:\n%s", f8)
	}
	t1 := RenderTable1(qs)
	if !strings.Contains(t1, "v /* c") {
		t.Fatalf("Table 1 missing dominant pattern:\n%s", t1)
	}
	if Speedup(reports[0], reports[1]) <= 0 {
		t.Fatal("Speedup must be positive")
	}
}

// The ring index must be substantially smaller than the adjacency
// baseline — the paper's headline space claim (3–5x).
func TestSpaceShape(t *testing.T) {
	rg, nb, ja, _, _, edges := testSetup(t)
	ringBytes := float64(rg.SizeBytes()) / float64(edges)
	bfsBytes := float64(nb.SizeBytes()) / float64(edges)
	alpBytes := float64(ja.SizeBytes()) / float64(edges)
	if ringBytes >= bfsBytes {
		t.Fatalf("ring (%.1f B/e) not smaller than adjacency (%.1f B/e)", ringBytes, bfsBytes)
	}
	if ringBytes >= alpBytes {
		t.Fatalf("ring (%.1f B/e) not smaller than triple-table (%.1f B/e)", ringBytes, alpBytes)
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5}
	if quantile(ds, 0) != 1 || quantile(ds, 1) != 5 || quantile(ds, 0.5) != 3 {
		t.Fatal("quantile endpoints wrong")
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
	if mean(nil) != 0 {
		t.Fatal("empty mean not zero")
	}
}

func TestTimeoutAccounting(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 4, Nodes: 2000, Edges: 14000, Preds: 6})
	sys := NewALP(g) // the spec-faithful evaluator is the slowest
	qs := []workload.Query{{
		Expr:    workload.Generate(g, workload.Config{Seed: 1, Total: 1})[0].Expr,
		Pattern: "v * v",
	}}
	// Force a star pattern over both variables with a tiny timeout.
	qs[0].Subject, qs[0].Object = "", ""
	rep, err := Run(sys, qs, 0, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[0].TimedOut {
		t.Skip("query finished within a microsecond; timing too coarse here")
	}
	if rep.Results[0].Duration != time.Microsecond {
		t.Fatalf("timed-out duration=%v, want the timeout value", rep.Results[0].Duration)
	}
}
