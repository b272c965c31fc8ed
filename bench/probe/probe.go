// Package probe measures single layers from outside: it builds the
// workload's graph in this process and times calls into each layer's
// exported functions over seed-fixed inputs. The numbers say what a
// layer costs in isolation; the end-to-end metrics say whether that
// cost matters. Nothing here is gated.
package probe

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"ringrpq"
	"ringrpq/bench/oplog"
	"ringrpq/bench/spans"
	"ringrpq/bench/stat"
	"ringrpq/internal/bitvec"
	"ringrpq/internal/core"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/overlay"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/wal"
	"ringrpq/internal/wavelet"
)

const (
	// reps is how often a probe repeats; the median repetition counts.
	reps = 5
	// ablationReps and ablationOps bound the engine variants nobody
	// serves (interpreter, unbatched, no fast paths, sharded, overlay):
	// fewer repetitions over a prefix of the probe log.
	ablationReps = 3
	ablationOps  = 250
	// logOps is the size of the Table-1 log the engine probes evaluate;
	// 1000 leaves ten beyond p99.
	logOps = 1000
	// calls is the batch a micro-probe times at once, so that the clock
	// is read once per thousands of calls.
	calls = 1 << 15
)

// Result is one per-layer metric.
type Result struct {
	Name  string
	Value float64
	Unit  string
}

// Config is what the probes run over.
type Config struct {
	Graph *triples.Graph
	Data  string // the graph's triple file, for the in-process service
	Seed  int64
	Dir   string // scratch directory for the WAL probe
	Rec   *spans.Recorder
}

type prober struct {
	cfg Config
	rng *rand.Rand
	out []Result
}

// sink receives a value from every timed call so that none is
// optimised away.
var sink int

func (p *prober) add(name string, v float64, unit string) {
	p.out = append(p.out, Result{name, v, unit})
}

// timed runs f n times, records one span per call, and returns the
// median duration.
func (p *prober) timed(name string, n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		f()
		d := time.Since(start)
		p.cfg.Rec.Add(-1, "probe."+name, -1, start, d, nil)
		ds[i] = float64(d)
	}
	return time.Duration(stat.Median(ds))
}

// Run executes every probe.
func Run(ctx context.Context, cfg Config) ([]Result, error) {
	p := &prober{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g := cfg.Graph

	p.bitvec(g.Len())
	r := p.ring(g)
	p.wavelet(r)
	log := oplog.Distinct(g, cfg.Seed, logOps)
	p.automata(g, log)
	if err := p.engines(ctx, g, r, log); err != nil {
		return nil, err
	}
	if err := p.service(ctx, log); err != nil {
		return nil, err
	}
	if err := p.wal(); err != nil {
		return nil, err
	}
	return p.out, ctx.Err()
}

// bitvec times rank and select on a half-full random vector as long as
// the ring's L_p.
func (p *prober) bitvec(n int) {
	b := bitvec.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Append(p.rng.Intn(2) == 1)
	}
	v := b.Build()
	pos := make([]int, calls)
	ks := make([]int, calls)
	for i := range pos {
		pos[i] = p.rng.Intn(n + 1)
		ks[i] = 1 + p.rng.Intn(v.Ones())
	}
	d := p.timed("bitvec.rank1", reps, func() {
		for _, i := range pos {
			sink += v.Rank1(i)
		}
	})
	p.add("bitvec.rank1_ns", float64(d)/calls, "ns")
	d = p.timed("bitvec.select1", reps, func() {
		for _, k := range ks {
			sink += v.Select1(k)
		}
	})
	p.add("bitvec.select1_ns", float64(d)/calls, "ns")
}

// ring times index construction and one backward-search step.
func (p *prober) ring(g *triples.Graph) *ring.Ring {
	var r *ring.Ring
	d := p.timed("ring.build", 3, func() { r = ring.New(g, ring.WaveletMatrix) })
	p.add("ring.build_s", d.Seconds(), "s")
	p.add("ring.bytes_per_triple", float64(r.SizeBytes())/float64(r.N), "B")

	type step struct {
		b, e int
		pred uint32
	}
	steps := make([]step, calls)
	for i := range steps {
		o := p.rng.Intn(r.NumNodes)
		steps[i] = step{r.Co[o], r.Co[o+1], uint32(p.rng.Intn(int(r.NumPreds)))}
	}
	d = p.timed("ring.backward_by_pred", reps, func() {
		for _, s := range steps {
			b, _ := r.BackwardByPred(s.b, s.e, s.pred)
			sink += b
		}
	})
	p.add("ring.backward_by_pred_ns", float64(d)/calls, "ns")
	return r
}

// wavelet times a rank on L_s (the wide alphabet) and the multi-range
// descent of L_p over frontier-sized batches of object ranges.
func (p *prober) wavelet(r *ring.Ring) {
	type q struct {
		c uint32
		i int
	}
	qs := make([]q, calls)
	for i := range qs {
		qs[i] = q{uint32(p.rng.Intn(r.NumNodes)), p.rng.Intn(r.N + 1)}
	}
	d := p.timed("wavelet.rank", reps, func() {
		for _, x := range qs {
			sink += r.Ls.Rank(x.c, x.i)
		}
	})
	p.add("wavelet.rank_ns", float64(d)/calls, "ns")

	const frontier, batches = 64, 256
	var batchesOf [][]wavelet.RangeMask
	for b := 0; b < batches; b++ {
		objs := map[int]bool{}
		for len(objs) < frontier {
			if o := p.rng.Intn(r.NumNodes); r.Co[o+1] > r.Co[o] {
				objs[o] = true
			}
		}
		items := make([]wavelet.RangeMask, 0, frontier)
		for o := range objs {
			items = append(items, wavelet.RangeMask{B: r.Co[o], E: r.Co[o+1], Mask: ^uint64(0), Tag: uint32(o)})
		}
		sort.Slice(items, func(i, j int) bool { return items[i].B < items[j].B })
		batchesOf = append(batchesOf, items)
	}
	scratch := make([]wavelet.RangeMask, frontier)
	d = p.timed("wavelet.traverse_many", reps, func() {
		for _, items := range batchesOf {
			copy(scratch, items) // the descent may compact its input
			r.Lp.TraverseMany(scratch, func(_ wavelet.NodeID, leaf bool, _ uint32, its []wavelet.RangeMask) int {
				if leaf {
					sink += len(its)
				}
				return len(its)
			})
		}
	})
	p.add("wavelet.traverse_many_ns_per_range", float64(d)/(frontier*batches), "ns")
}

// automata times the per-expression pipeline: parse, Glushkov
// construction, compilation to a stepper, and one reverse step.
func (p *prober) automata(g *triples.Graph, log []oplog.Op) {
	n := float64(len(log))
	nodes := make([]pathexpr.Node, len(log))
	d := p.timed("pathexpr.parse", reps, func() {
		for i, op := range log {
			nodes[i] = pathexpr.MustParse(op.Expr)
		}
	})
	p.add("pathexpr.parse_us", float64(d)/1e3/n, "us")

	autos := make([]*glushkov.Automaton, len(log))
	d = p.timed("glushkov.build", reps, func() {
		for i, node := range nodes {
			autos[i] = glushkov.Build(node, predIDs(g))
		}
	})
	p.add("glushkov.build_us", float64(d)/1e3/n, "us")

	steppers := make([]glushkov.Stepper, len(log))
	d = p.timed("glushkov.compile", reps, func() {
		for i, a := range autos {
			eng, err := glushkov.NewEngineFor(a, g.NumCompletedPreds())
			if err != nil {
				panic(err) // Table-1 expressions have a handful of states
			}
			steppers[i] = glushkov.Compile(eng, g.NumCompletedPreds())
		}
	})
	p.add("glushkov.compile_us", float64(d)/1e3/n, "us")

	const stepsEach = 64
	d = p.timed("glushkov.step", reps, func() {
		for _, st := range steppers {
			x := ^uint64(0)
			for i := 0; i < stepsEach; i++ {
				x = st.StepBack(x) | 1
			}
			sink += int(x & 1)
		}
	})
	p.add("glushkov.step_ns", float64(d)/(n*stepsEach), "ns")
}

// predIDs resolves predicate occurrences of expressions against g.
func predIDs(g *triples.Graph) glushkov.SymbolIDs {
	return func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
}

// resolved is a log query over dictionary ids.
type resolved struct {
	q   core.Query
	c2v bool
}

func resolve(g *triples.Graph, log []oplog.Op) []resolved {
	out := make([]resolved, 0, len(log))
	id := func(name string) int64 {
		if name == "" {
			return core.Variable
		}
		v, _ := g.Nodes.Lookup(name) // the generator draws constants from g
		return int64(v)
	}
	for _, op := range log {
		out = append(out, resolved{
			q:   core.Query{Subject: id(op.Subject), Expr: pathexpr.MustParse(op.Expr), Object: id(op.Object)},
			c2v: op.Class == "c2v",
		})
	}
	return out
}

// evalAll evaluates qs n times on ev and returns each query's median
// latency in microseconds.
func (p *prober) evalAll(ctx context.Context, name string, ev core.Evaluator, qs []resolved, opts core.Options, n int) ([]float64, error) {
	passes := make([][]float64, 0, n)
	var failed error
	p.timed(name, n, func() {
		lat := make([]float64, len(qs))
		for i, q := range qs {
			start := time.Now()
			_, err := ev.Eval(ctx, q.q, opts, func(_, _ uint32) bool { return true })
			lat[i] = float64(time.Since(start)) / 1e3
			if err != nil && failed == nil {
				failed = fmt.Errorf("%s: %v", name, err)
			}
		}
		passes = append(passes, lat)
	})
	return stat.MedianOfPasses(passes), failed
}

// engines times core.Engine over the probe log by endpoint class, its
// ablation switches, the sharded engine and the overlay union engine.
func (p *prober) engines(ctx context.Context, g *triples.Graph, r *ring.Ring, log []oplog.Op) error {
	qs := resolve(g, log)
	opts := core.Options{Limit: oplog.Limit, Timeout: 2 * time.Second}
	eng := core.NewEngine(r, predIDs(g))

	lat, err := p.evalAll(ctx, "core.eval", eng, qs, opts, reps)
	if err != nil {
		return err
	}
	var c2v, v2v []float64
	for i, q := range qs {
		if q.c2v {
			c2v = append(c2v, lat[i])
		} else {
			v2v = append(v2v, lat[i])
		}
	}
	p.add("core.eval_c2v_us_p50", stat.Median(c2v), "us")
	p.add("core.eval_v2v_us_p50", stat.Median(v2v), "us")
	p.add("core.eval_us_p99", stat.Percentile(stat.Sorted(lat), stat.TailPercentile(len(lat))), "us")
	p.add("core.working_bytes", float64(eng.WorkingSizeBytes()), "B")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := p.evalAll(ctx, "core.eval.allocs", eng, qs, opts, 1); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	p.add("core.allocs_per_eval", float64(m1.Mallocs-m0.Mallocs)/float64(len(qs)), "count")

	few := qs[:min(ablationOps, len(qs))]
	ablate := func(name string, ev core.Evaluator, o core.Options) error {
		lat, err := p.evalAll(ctx, name, ev, few, o, ablationReps)
		p.add(name, stat.Median(lat), "us")
		return err
	}
	o := opts
	o.DisableCompiled = true
	if err := ablate("core.eval_interp_us_p50", eng, o); err != nil {
		return err
	}
	o = opts
	o.DisableBatching = true
	if err := ablate("core.eval_unbatched_us_p50", eng, o); err != nil {
		return err
	}
	o = opts
	o.DisableFastPaths = true
	if err := ablate("core.eval_nofast_us_p50", eng, o); err != nil {
		return err
	}
	set := ring.NewShardSet(g, 3, nil, ring.WaveletMatrix)
	if err := ablate("core.sharded_eval_us_p50", core.NewShardedEngine(set, predIDs(g)), opts); err != nil {
		return err
	}

	// Overlay: batches of 16 base edges between existing nodes (so the
	// node id space stays the graph's), applied one by one for the
	// per-batch cost and then in bulk up to a 5 % fill.
	np := g.NumPreds
	edge := func() []overlay.Edge {
		s, o := uint32(p.rng.Intn(g.NumNodes())), uint32(p.rng.Intn(g.NumNodes()))
		pr := uint32(p.rng.Intn(int(np)))
		return []overlay.Edge{{S: s, P: pr, O: o}, {S: o, P: pr + np, O: s}}
	}
	inStatic := func(e overlay.Edge) bool { return r.Has(e.S, e.P, e.O) }
	ov := overlay.New()
	version := uint64(0)
	const batches, perBatch = 200, 16
	apply := make([]float64, batches)
	for b := range apply {
		var adds []overlay.Edge
		for i := 0; i < perBatch; i++ {
			adds = append(adds, edge()...)
		}
		version++
		start := time.Now()
		ov = ov.Apply(version, adds, nil, inStatic)
		apply[b] = float64(time.Since(start)) / 1e3
	}
	p.add("overlay.apply_us_per_batch", stat.Median(apply), "us")
	var bulk []overlay.Edge
	for ov.Weight()+len(bulk) < g.Len()/20 {
		bulk = append(bulk, edge()...)
	}
	ov = ov.Apply(version+1, bulk, nil, inStatic)
	union := overlay.NewEngine(eng, []*ring.Ring{r}, predIDs(g), g.NumCompletedPreds())
	union.SetSnapshot(ov, g.NumNodes())
	return ablate("overlay.eval_us_p50", union, opts)
}

// service times ringrpq.Service.Query in this process, without HTTP, on
// warm caches: with http.overhead_us_p50 it splits a cached read into
// service and transport.
func (p *prober) service(ctx context.Context, log []oplog.Op) error {
	f, err := os.Open(p.cfg.Data)
	if err != nil {
		return err
	}
	defer f.Close()
	b := ringrpq.NewBuilder()
	if err := b.Load(f); err != nil {
		return err
	}
	db, err := b.Build()
	if err != nil {
		return err
	}
	svc := ringrpq.NewService(db, ringrpq.ServiceConfig{})
	defer svc.Close()
	pool := log[:min(300, len(log))]
	endpoint := func(name, v string) string {
		if name == "" {
			return v
		}
		return name
	}
	var failed error
	pass := func() []float64 {
		lat := make([]float64, len(pool))
		for i, op := range pool {
			start := time.Now()
			_, err := svc.Query(ctx, endpoint(op.Subject, "?s"), op.Expr, endpoint(op.Object, "?o"), ringrpq.WithLimit(oplog.Limit))
			lat[i] = float64(time.Since(start)) / 1e3
			if err != nil && failed == nil {
				failed = fmt.Errorf("service.inproc: %v", err)
			}
		}
		return lat
	}
	pass() // fill the caches
	var passes [][]float64
	p.timed("service.inproc", reps, func() { passes = append(passes, pass()) })
	p.add("service.inproc_us_p50", stat.Median(stat.MedianOfPasses(passes)), "us")
	return failed
}

// wal times an append and the fsync that acknowledges it, on the real
// file system under policy always. The payload is the size of a typical
// 16-edge batch record.
func (p *prober) wal() error {
	dir, err := os.MkdirTemp(p.cfg.Dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	payload := make([]byte, 600)
	p.rng.Read(payload)
	const records = 200
	appendUS := make([]float64, records)
	syncUS := make([]float64, records)
	for i := range appendUS {
		t0 := time.Now()
		lsn, err := l.Append(uint64(i+1), payload)
		if err != nil {
			l.Close()
			return err
		}
		t1 := time.Now()
		if err := l.Sync(lsn); err != nil {
			l.Close()
			return err
		}
		t2 := time.Now()
		appendUS[i] = float64(t1.Sub(t0)) / 1e3
		syncUS[i] = float64(t2.Sub(t1)) / 1e3
		p.cfg.Rec.Add(-1, "probe.wal.append+fsync", -1, t0, t2.Sub(t0), nil)
	}
	p.add("wal.append_us_p50", stat.Median(appendUS), "us")
	p.add("wal.fsync_us_p50", stat.Median(syncUS), "us")
	return l.Close()
}
