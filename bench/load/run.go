package load

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
	"ringrpq/bench/stat"
	"ringrpq/internal/triples"
)

// Options are the arguments of one run.
type Options struct {
	Root     string // repository root
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
}

const (
	// setups is how often an untraced run starts rpqd to take setup_s
	// as a median; the last instance serves the run.
	setups = 3
	// minPasses is the least number of latency passes and of throughput
	// passes; more are run while --seconds allows.
	minPasses = 3
	// minCompactions is how many background compactions a mixed_rw run
	// must see completed to count as having exercised them.
	minCompactions = 4
)

// connections is the closed-loop client count of the throughput passes.
func connections() int { return min(runtime.NumCPU(), 4) }

// Run executes one benchmark run and returns its row. An error means
// the run could not be carried out; a run that was carried out but
// failed its checks returns a row with Correct false.
func Run(ctx context.Context, opt Options) (*Row, error) {
	wl, ok := Find(opt.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.Workload)
	}
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("the benchmark needs at least 2 CPUs (server and generator share the box), have %d", runtime.NumCPU())
	}
	t := time.Now()
	work, err := NewWork(opt.Root)
	if err != nil {
		return nil, err
	}
	bin, err := work.BuildServer(ctx)
	if err != nil {
		return nil, err
	}
	phase("build rpqd", &t)
	data, err := work.Data(wl.Graph)
	if err != nil {
		return nil, err
	}
	// Loading and indexing the graph is the harness's own fixed work of
	// the kind rpqd's set-up is: it meters setup_s (see below).
	loadStart := time.Now()
	g, err := LoadGraph(data)
	if err != nil {
		return nil, err
	}
	or := oracle.New(g)
	load := time.Since(loadStart)
	phase("graph + oracle", &t)
	ops := wl.Ops(g, or, opt.Seed, opt.Seconds)
	if len(ops) == 0 {
		return nil, fmt.Errorf("%s: empty op log", wl.Name)
	}
	phase("op log", &t)

	r := &runner{opt: opt, wl: wl, work: work, bin: bin, data: data, g: g, or: or, ops: ops}
	r.row = &Row{
		Workload: wl.Name, Seed: opt.Seed, Seconds: opt.Seconds,
		Metrics: map[string]Metric{}, Provenance: machine(opt.Root),
	}
	p := &r.row.Provenance
	p.DatasetSeed, p.Graph, p.CompletedTriples = DatasetSeed, wl.Graph, int64(g.Len())
	p.RequestLimit, p.RequestTimeout = oplog.Limit, oplog.Timeout
	p.FlushPolicy = "none: no WAL, updates are acknowledged from memory"
	if wl.Durable {
		p.FlushPolicy = "always: every update is acknowledged after its WAL record is fsynced"
	}

	// Set-up, several times over: exec → first /readyz 200, which is
	// load + ring build (+ WAL open and first checkpoint when durable).
	n := setups
	if opt.Trace {
		n = 1
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if r.srv != nil {
			r.srv.Kill()
		}
		if r.srv, err = r.start(ctx, true); err != nil {
			return nil, err
		}
		setupS = append(setupS, r.srv.Setup.Seconds())
	}
	defer func() { r.srv.Stop() }()
	p.Setups, p.RpqdFlags = n, r.srv.Flags
	phase("set-up", &t)

	p.OpLogSHA256, p.Ops = oplog.SHA(r.ops), len(r.ops)
	for _, op := range r.ops {
		if op.IsRead() {
			p.Reads++
		} else {
			p.Writes++
		}
	}

	if opt.Trace {
		r.row.Trace = 1
		err = r.traced(ctx)
	} else {
		// Set-up has no requests to meter it by. What the harness has is
		// its own load of the same file a moment earlier: over forty runs
		// in a quiet and a noisy spell that time and set-up's rose
		// together (correlation 0.82–0.88), and set-up's median moved by
		// 20–27 % between the spells as measured and by 4 % or less in
		// units of it.
		p.LoadS = load.Seconds()
		p.SetupSlowdown = round3(p.LoadS / wl.Graph.LoadRefS)
		r.set("setup_s", stat.Median(setupS)/p.SetupSlowdown, "s")
		if err = r.measured(ctx); err == nil {
			r.row.AsMeasured["setup_s"] = stat.Median(setupS)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.row.Failed += r.row.Checks.Mismatched
	r.row.Correct = r.row.Failed == 0 && r.row.Checks.Passed() && len(r.problems) == 0
	p.Notes = append(p.Notes, r.problems...)
	return r.row, nil
}

// runner is the state of one run.
type runner struct {
	opt  Options
	wl   Workload
	work *Work
	bin  string
	data string // the graph's triple file
	g    *triples.Graph
	or   *oracle.Oracle
	ops  []oplog.Op
	srv  *Server
	row  *Row
	// problems are check failures other than wrong answers; any of them
	// makes the run incorrect.
	problems []string
}

func (r *runner) set(name string, v float64, unit string) {
	r.row.Metrics[name] = Metric{Value: v, Unit: unit}
}

// phase logs to standard error how long a stage of the run took, and
// restarts the clock.
func phase(name string, since *time.Time) {
	fmt.Fprintf(os.Stderr, "rpqload: %-18s %6.2fs\n", name, time.Since(*since).Seconds())
	*since = time.Now()
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// walDir is the durable workload's state directory.
func (r *runner) walDir() string { return filepath.Join(r.work.Dir, "wal-"+r.wl.Name) }

// start launches rpqd for the workload; fresh wipes a durable
// workload's state first, so set-up always includes the initial build.
func (r *runner) start(ctx context.Context, fresh bool) (*Server, error) {
	flags := append([]string{"-data", r.data}, r.wl.Flags...)
	if r.wl.Durable {
		if fresh {
			if err := os.RemoveAll(r.walDir()); err != nil {
				return nil, err
			}
		}
		flags = append(flags, "-wal-dir", r.walDir(), "-fsync", "always")
	}
	return r.work.Start(ctx, r.bin, flags)
}

// count adds a pass's requests to the run's attempted/failed totals.
func (r *runner) count(replies []Reply) {
	r.row.Attempted += len(replies)
	r.row.Failed += failures(replies)
}

// passesFor runs pass at least minPasses times and then for as long as
// another one fits the budget.
func passesFor(ctx context.Context, budget time.Duration, pass func()) int {
	start := time.Now()
	n := 0
	for ctx.Err() == nil {
		pass()
		n++
		elapsed := time.Since(start)
		if n >= minPasses && elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	return n
}

// measured is the untraced run: every end-to-end metric.
func (r *runner) measured(ctx context.Context) error {
	before, err := FetchStats(r.srv.URL)
	if err != nil {
		return err
	}
	r.set("index_bytes_per_triple", float64(before.Index.Index.IndexBytes)/float64(before.Index.Index.CompletedEdges), "B")
	if r.wl.Durable {
		return r.measuredMixed(ctx, before)
	}

	reqs := Prepare(r.ops, false)
	conns := connections()
	cl := NewClient(r.srv.URL, conns)
	defer cl.Close()
	if r.wl.RefWork {
		cl.WithRefWork(conns)
	}
	sample := sampleOf(len(reqs), sampleSize, r.opt.Seed)
	keep := func(i int) bool { return sample[i] }

	// One untimed pass fills the caches and finishes lazy set-up (the
	// planner's selectivity statistics, compiled steppers).
	t := time.Now()
	cl.Pass(ctx, reqs, 1, nil)
	phase("warm pass", &t)
	warm, err := FetchStats(r.srv.URL)
	if err != nil {
		return err
	}
	tp, err := r.timedPasses(ctx, cl, reqs, conns, keep)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	phase("timed passes", &t)

	after, err := FetchStats(r.srv.URL)
	if err != nil {
		return err
	}
	r.report(len(reqs), tp.timings(r.wl.TailPercentile, metered.ms), tp.timings(r.wl.TailPercentile, asMeasured))
	r.checkHitRatio(warm, after)

	r.row.Checks = checkStatic(r.or, r.ops, tp.lat[len(tp.lat)-1].replies)
	phase("answer check", &t)
	return nil
}

// timings are the timing metrics of one run.
type timings struct {
	p50, tail float64 // read latency across ops, ms
	tailPct   float64 // the percentile tail was taken at
	opsPerS   float64
	cpuPerOp  float64 // rpqd CPU, ms
}

// asMeasured converts a duration measured during a pass into
// milliseconds as they were: metered.ms without the metering.
func asMeasured(_ metered, d time.Duration) float64 { return float64(d) / 1e6 }

// report sets the timing metrics twice over: tm at the reference speed
// (see meter.go), which is what the run prints and a comparison uses,
// and raw as measured, which goes into the row beside them.
func (r *runner) report(reads int, tm, raw timings) {
	p := &r.row.Provenance
	p.ReadSamples, p.ReadTailPercentile = reads, tm.tailPct
	r.set("read_p50_ms", tm.p50, "ms")
	r.set("read_p99_ms", tm.tail, "ms")
	r.set("ops_per_s", tm.opsPerS, "1/s")
	r.set("cpu_ms_per_op", tm.cpuPerOp, "ms")
	r.row.AsMeasured = map[string]float64{
		"read_p50_ms": raw.p50, "read_p99_ms": raw.tail, "ops_per_s": raw.opsPerS, "cpu_ms_per_op": raw.cpuPerOp,
	}
}

// timed is the timed part of a read-only run.
type timed struct {
	lat []metered // latency passes
	thr []metered // throughput passes
}

// timings derives the run's timing metrics; ms converts a duration
// measured during a pass into milliseconds. A per-op latency is the
// median of that op's latencies across the latency passes, and the
// quantiles are taken across ops; throughput is the log's length over
// the median wall time of the throughput passes; CPU is rpqd's over all
// passes, per op executed.
func (tp timed) timings(tailPct float64, ms func(metered, time.Duration) float64) timings {
	lat := make([][]float64, len(tp.lat))
	for i, m := range tp.lat {
		for _, rep := range m.replies {
			lat[i] = append(lat[i], ms(m, rep.Latency))
		}
	}
	perOp := stat.Sorted(stat.MedianOfPasses(lat))
	tm := timings{tailPct: min(tailPct, stat.TailPercentile(len(perOp)))}
	tm.p50, tm.tail = stat.Percentile(perOp, 50), stat.Percentile(perOp, tm.tailPct)
	var walls []float64
	for _, m := range tp.thr {
		walls = append(walls, ms(m, m.wall)/1e3)
	}
	tm.opsPerS = float64(len(perOp)) / stat.Median(walls)
	executed := 0
	for _, m := range append(append([]metered(nil), tp.lat...), tp.thr...) {
		tm.cpuPerOp += ms(m, m.server)
		executed += len(m.replies)
	}
	tm.cpuPerOp /= float64(executed)
	return tm
}

// timedPasses runs the timed part of a read-only run. Latency passes:
// one connection, closed loop, as many as fit half of --seconds; the
// sampled answers are kept from each. Throughput passes: conns
// connections pulling from one shared cursor, for the other half.
func (r *runner) timedPasses(ctx context.Context, cl *Client, reqs []Request, conns int, keep func(int) bool) (timed, error) {
	budget := time.Duration(r.opt.Seconds) * time.Second / 2
	p := &r.row.Provenance
	p.WarmPasses, p.Connections = 1, conns
	var tp timed
	var failed error
	pass := func(conns int, keep func(int) bool, refUS float64) metered {
		m, err := r.meter(ctx, cl, reqs, conns, keep, refUS)
		if err != nil && failed == nil {
			failed = err
		}
		return m
	}
	p.LatencyPasses = passesFor(ctx, budget, func() {
		tp.lat = append(tp.lat, pass(1, keep, r.wl.MeterRefUS.Latency))
	})
	p.ThroughputPasses = passesFor(ctx, budget, func() {
		tp.thr = append(tp.thr, pass(conns, nil, r.wl.MeterRefUS.Throughput))
	})
	return tp, failed
}

// checkHitRatio fails a run whose result cache did not behave as the
// workload is built to make it behave, and returns the ratio.
func (r *runner) checkHitRatio(from, to ServerStats) float64 {
	hits := to.Service.Hits - from.Service.Hits
	misses := to.Service.Misses - from.Service.Misses
	if hits+misses == 0 {
		return 0
	}
	ratio := float64(hits) / float64(hits+misses)
	if ratio < r.wl.HitRatio[0] || ratio > r.wl.HitRatio[1] {
		r.problem("result-cache hit ratio %.3f outside [%g, %g]: the workload is not exercising what it was built for",
			ratio, r.wl.HitRatio[0], r.wl.HitRatio[1])
	}
	return ratio
}

// checkCompactions fails a mixed run that did not see background
// compaction complete several cycles: it would not have measured reads
// and writes beside it.
func (r *runner) checkCompactions(after ServerStats) {
	if c := after.Index.Updates.Compactions; c < minCompactions {
		r.problem("%d compactions completed, want at least %d", c, minCompactions)
	}
}

// mixedPass is the outcome of mixed_rw's single pass.
type mixedPass struct {
	metered
	reads, writes []time.Duration // latencies, in log order
	lastVersion   uint64
}

// timings derives the pass's timing metrics (see timed.timings): here a
// read's latency is its one observation, and throughput and CPU cover
// reads and writes alike.
func (mp mixedPass) timings(tailPct float64, ms func(metered, time.Duration) float64) timings {
	reads := stat.Sorted(mp.millis(mp.reads, ms))
	tm := timings{tailPct: min(tailPct, stat.TailPercentile(len(reads)))}
	tm.p50, tm.tail = stat.Percentile(reads, 50), stat.Percentile(reads, tm.tailPct)
	n := float64(len(mp.replies))
	tm.opsPerS = n / (ms(mp.metered, mp.wall) / 1e3)
	tm.cpuPerOp = ms(mp.metered, mp.server) / n
	return tm
}

func (mp mixedPass) millis(ds []time.Duration, ms func(metered, time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(mp.metered, d)
	}
	return out
}

// runMixed warms the server with the log's first reads (they are
// idempotent; the updates are not, which is why the timed part is a
// single pass) and then executes the whole log once, in order, on one
// connection. refUS meters the pass (0: times stay as measured).
func (r *runner) runMixed(ctx context.Context, cl *Client, profile bool, refUS float64) (mixedPass, error) {
	var reads []oplog.Op
	for _, op := range r.ops {
		if op.IsRead() && len(reads) < mixedWarmReads {
			reads = append(reads, op)
		}
	}
	cl.Pass(ctx, Prepare(reads, false), 1, nil)

	sample := epochSample(r.ops, r.opt.Seed)
	m, err := r.meter(ctx, cl, Prepare(r.ops, profile), 1, func(i int) bool {
		return sample[i] || r.ops[i].Kind == oplog.Update || profile
	}, refUS)
	mp := mixedPass{metered: m}
	for i, rep := range mp.replies {
		if r.ops[i].IsRead() {
			mp.reads = append(mp.reads, rep.Latency)
			continue
		}
		mp.writes = append(mp.writes, rep.Latency)
		if v, ok := ackedVersion(rep); ok {
			mp.lastVersion = v
		}
	}
	return mp, err
}

func (r *runner) measuredMixed(ctx context.Context, before ServerStats) error {
	cl := NewClient(r.srv.URL, 1)
	defer cl.Close()
	t := time.Now()
	mp, err := r.runMixed(ctx, cl, false, r.wl.MeterRefUS.Latency)
	if err != nil {
		return err
	}
	phase("warm + mixed pass", &t)
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := FetchStats(r.srv.URL)
	if err != nil {
		return err
	}

	p := &r.row.Provenance
	p.WarmPasses, p.LatencyPasses, p.Connections = 1, 1, 1
	p.WriteSamples = len(mp.writes)
	r.report(len(mp.reads), mp.timings(r.wl.TailPercentile, metered.ms), mp.timings(r.wl.TailPercentile, asMeasured))
	r.checkHitRatio(before, after)
	r.checkCompactions(after)

	var final *oracle.EdgeSet
	r.row.Checks, final = checkMixed(r.g, r.ops, mp.replies)
	phase("answer check", &t)
	defer phase("kill + restart", &t)
	return r.durability(ctx, mp, final)
}
