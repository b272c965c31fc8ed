package load

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ringrpq"
	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
	"ringrpq/bench/spans"
	"ringrpq/internal/datagen"
)

// pattern_select at a twentieth of its scale, against the service's
// HTTP handler in this process instead of an rpqd child: warm pass, timed passes, answer check, traced pass and span metrics
// all run, in a second or two (several under the race detector).
func TestSmokePatternSelect(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: DatasetSeed, Nodes: g100k.Nodes / 20, Edges: g100k.Edges / 20, Preds: 20})
	b := ringrpq.NewBuilder()
	for _, tr := range g.Triples {
		if tr.P < g.NumPreds {
			b.Add(g.Nodes.Name(tr.S), g.Preds.Name(tr.P), g.Nodes.Name(tr.O))
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{ResultCacheEntries: 8})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler(ringrpq.HandlerConfig{}))
	defer ts.Close()

	wl, _ := Find("pattern_select")
	or := oracle.New(g)
	r := &runner{
		opt: Options{Seed: 1, Seconds: 1}, wl: wl, g: g, or: or,
		srv: &Server{URL: ts.URL},
		row: &Row{Metrics: map[string]Metric{}},
		ops: oplog.Patterns(g, DatasetSeed, 1, patternCandidates/5, or.Affordable)[:30],
	}
	ctx := context.Background()

	cl := NewClient(ts.URL, 2).WithRefWork(2) // as measured() does for a RefWork workload
	defer cl.Close()
	reqs := Prepare(r.ops, false)
	cl.Pass(ctx, reqs, 1, nil)
	tp, err := r.timedPasses(ctx, cl, reqs, 2, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.lat) < minPasses || len(tp.thr) < minPasses || len(tp.lat[0].replies) != len(reqs) {
		t.Fatalf("%d latency and %d throughput passes", len(tp.lat), len(tp.thr))
	}
	if executed := (len(tp.lat) + len(tp.thr)) * len(reqs); r.row.Failed != 0 || r.row.Attempted != executed {
		t.Fatalf("attempted %d failed %d executed %d", r.row.Attempted, r.row.Failed, executed)
	}
	p := r.row.Provenance
	if n := len(p.Slowdown); n != len(tp.lat)+len(tp.thr) || len(p.RefWorkUS) != n {
		t.Fatalf("%d metered passes recorded, %d readings of the reference work", n, len(p.RefWorkUS))
	}
	// The pass is metered by the reference work, once per request, and
	// not by the harness's CPU.
	if took := len(cl.ref[0].took) + len(cl.ref[1].took); !wl.RefWork || took != len(reqs) {
		t.Fatalf("reference work ran %d times in a pass of %d requests", took, len(reqs))
	}
	for i, us := range p.RefWorkUS {
		if want := us / wl.MeterRefUS.Latency; us <= 0 || math.Abs(p.Slowdown[i]-want) > 0.001 {
			t.Fatalf("pass %d: slowdown %v from a reading of %v µs", i, p.Slowdown[i], us)
		}
	}
	tm := tp.timings(wl.TailPercentile, metered.ms)
	if tm.p50 <= 0 || tm.tail < tm.p50 || tm.opsPerS <= 0 {
		t.Fatalf("timings %+v", tm)
	}
	last := tp.lat[len(tp.lat)-1].replies
	checks := checkStatic(or, r.ops, last)
	if !checks.Passed() || checks.Checked != len(r.ops) {
		t.Fatalf("answer check: %+v", checks)
	}

	// A wrong answer must be caught: serve op 0's rows for op 1.
	swapped := append([]Reply(nil), last...)
	swapped[1].Body = last[0].Body
	if c := checkStatic(or, r.ops, swapped); string(last[0].Body) != string(last[1].Body) && c.Mismatched == 0 {
		t.Fatal("a swapped answer went unnoticed")
	}

	rec := spans.NewRecorder()
	traced, _ := cl.Pass(ctx, Prepare(r.ops, true), 1, func(int) bool { return true })
	ops, _ := graft(rec, traced)
	sum := r.spanMetrics(ops, 0)
	if len(ops) != len(r.ops) || len(r.problems) != 0 {
		t.Fatalf("%d traced ops, problems %v", len(ops), r.problems)
	}
	if sum.SelfCoverage < 0.99 || sum.SelfCoverage > 1.01 {
		t.Fatalf("self times cover %v of the root spans", sum.SelfCoverage)
	}
	if r.row.Metrics["ltj.join_self_us"].Value <= 0 || rec.Len() < 3*len(ops) {
		t.Fatalf("span metrics %v, %d spans", r.row.Metrics, rec.Len())
	}
}

func TestPassesForHonoursMinimumAndBudget(t *testing.T) {
	n := passesFor(context.Background(), 0, func() {})
	if n != minPasses {
		t.Fatalf("%d passes on no budget, want the minimum %d", n, minPasses)
	}
	n = passesFor(context.Background(), 50*time.Millisecond, func() { time.Sleep(5 * time.Millisecond) })
	if n <= minPasses || n > 10 {
		t.Fatalf("%d passes of 5 ms in 50 ms", n)
	}
}

func TestSamples(t *testing.T) {
	a, b := sampleOf(1000, sampleSize, 4), sampleOf(1000, sampleSize, 4)
	if len(a) != sampleSize {
		t.Fatalf("sample of %d", len(a))
	}
	for i := range a {
		if !b[i] {
			t.Fatal("one seed drew two samples")
		}
	}
	if len(sampleOf(50, sampleSize, 4)) != 50 {
		t.Fatal("a log smaller than the sample is checked whole")
	}

	// Epochs: reads between consecutive updates are sampled together.
	var ops []oplog.Op
	for i := 0; i < 1000; i++ {
		op := oplog.Op{Kind: oplog.Query}
		if i%10 == 9 {
			op.Kind = oplog.Update
		}
		ops = append(ops, op)
	}
	s := epochSample(ops, 4)
	if len(s) < sampleSize || len(s) > sampleSize+9 {
		t.Fatalf("epoch sample of %d reads", len(s))
	}
	for i := range s {
		if ops[i].Kind == oplog.Update {
			t.Fatal("an update was sampled as a read")
		}
		for j := i - i%10; j < i-i%10+9; j++ {
			if !s[j] {
				t.Fatalf("read %d sampled without its epoch-mate %d", i, j)
			}
		}
	}
}

// BENCHMARK.json is written by hand; the names, units and bounds in it
// must be the ones this package prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) || len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in the file, %s in the code", i, spec.Workloads[i], w.Name)
		}
	}
	for i, m := range EndToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v in the file, %+v in the code", i, g, m)
		}
	}
	seen := map[string]bool{}
	for i, m := range PerLayer {
		if g := spec.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: %+v in the file, %+v in the code", i, g, m)
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}
