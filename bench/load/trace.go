package load

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
	"ringrpq/bench/probe"
	"ringrpq/bench/spans"
	"ringrpq/bench/stat"
)

// traceFullOps is the number of ops whose complete server tree goes
// into the trace file; the rest keep their client spans and the server
// root. (A pattern op can carry two thousand spans.)
const traceFullOps = 100

// untracedPasses is the number of plain latency passes a traced run
// makes first: the base of obs.trace_overhead_ratio and the window of
// the counter deltas.
const untracedPasses = 2

// traceSummary heads the trace file.
type traceSummary struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"traced_ops"`
	// SelfUSByKind is the mean self time per traced op of every span
	// kind the server emitted; the kinds add up to RootUS but for spans
	// the server dropped at its cap.
	SelfUSByKind map[string]float64 `json:"self_us_by_kind"`
	RootUS       float64            `json:"root_us"`
	SelfCoverage float64            `json:"self_coverage"`
	DroppedSpans int                `json:"dropped_spans"`
}

// tracedOp is one op of the traced pass.
type tracedOp struct {
	clientUS float64
	st       spans.OpStats
}

// traced is the --trace 1 run: every per-layer metric, and the trace
// file. The untraced passes it makes are shorter than a measured run's,
// so it reports no end-to-end metric; and since a profiled reply is not
// the fixed work metering relies on, every time in it is as measured.
func (r *runner) traced(ctx context.Context) error {
	rec := spans.NewRecorder()
	t := time.Now()
	var ops []tracedOp
	var dropped int
	var err error
	if r.wl.Durable {
		ops, dropped, err = r.tracedMixed(ctx, rec)
	} else {
		ops, dropped, err = r.tracedStatic(ctx, rec)
	}
	if err != nil {
		return err
	}
	phase("traced passes", &t)
	summary := r.spanMetrics(ops, dropped)

	results, err := probe.Run(ctx, probe.Config{Graph: r.g, Data: r.data, Seed: r.opt.Seed, Dir: r.work.Dir, Rec: rec})
	if err != nil {
		return err
	}
	for _, res := range results {
		r.set(res.Name, res.Value, res.Unit)
	}
	phase("probes", &t)

	// Every per-layer metric is printed on every workload; one whose
	// layer this workload does not reach reads 0.
	for _, def := range PerLayer {
		if _, ok := r.row.Metrics[def.Name]; !ok {
			r.set(def.Name, 0, def.Unit)
		}
	}
	out := filepath.Join(r.opt.Root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return rec.WriteFile(filepath.Join(out, "trace-"+r.wl.Name+".json"), summary)
}

// tracedStatic: warm pass, plain latency passes, one throughput pass,
// then the same log once more with "profile": true on one connection.
func (r *runner) tracedStatic(ctx context.Context, rec *spans.Recorder) ([]tracedOp, int, error) {
	reqs := Prepare(r.ops, false)
	conns := connections()
	cl := NewClient(r.srv.URL, conns)
	defer cl.Close()
	sample := sampleOf(len(reqs), sampleSize, r.opt.Seed)

	cl.Pass(ctx, reqs, 1, nil)
	from, err := FetchStats(r.srv.URL)
	if err != nil {
		return nil, 0, err
	}
	var lat [][]float64
	var last []Reply
	for i := 0; i < untracedPasses; i++ {
		last, _ = cl.Pass(ctx, reqs, 1, func(i int) bool { return sample[i] })
		r.count(last)
		lat = append(lat, latenciesMS(last))
	}
	replies, _ := cl.Pass(ctx, reqs, conns, nil)
	r.count(replies)
	to, err := FetchStats(r.srv.URL)
	if err != nil {
		return nil, 0, err
	}
	p := &r.row.Provenance
	p.WarmPasses, p.LatencyPasses, p.ThroughputPasses, p.Connections = 1, untracedPasses, 1, conns
	if err := r.counterMetrics(from, to); err != nil {
		return nil, 0, err
	}
	size := 0
	for _, rep := range last {
		size += rep.Bytes
	}
	r.set("http.bytes_per_response", float64(size)/float64(len(last)), "B")

	traced, _ := cl.Pass(ctx, Prepare(r.ops, true), 1, func(int) bool { return true })
	r.count(traced)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ops, dropped := graft(rec, traced)
	r.set("obs.trace_overhead_ratio", stat.Median(latenciesMS(traced))/stat.Median(stat.MedianOfPasses(lat)), "ratio")

	if r.wl.OpenLoop {
		r.openLoop(ctx, reqs, openLoopRate, openLoopSeconds*time.Second)
	}
	r.row.Checks = checkStatic(r.or, r.ops, last)
	return ops, dropped, nil
}

// tracedMixed runs the mixed log twice from the same initial state: on
// the server the run was set up with, untraced, which yields the
// counter and client-side write metrics and the durability check; then
// on a fresh server with "profile": true on every read. /update has no
// profile field, so the write path has no spans: its layers are covered
// by the probes and counters only.
func (r *runner) tracedMixed(ctx context.Context, rec *spans.Recorder) ([]tracedOp, int, error) {
	cl := NewClient(r.srv.URL, 1)
	from, err := FetchStats(r.srv.URL)
	if err != nil {
		return nil, 0, err
	}
	plain, err := r.runMixed(ctx, cl, false, 0)
	cl.Close()
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	to, err := FetchStats(r.srv.URL)
	if err != nil {
		return nil, 0, err
	}
	p := &r.row.Provenance
	p.WarmPasses, p.LatencyPasses, p.Connections = 1, 1, 1
	if err := r.counterMetrics(from, to); err != nil {
		return nil, 0, err
	}
	edges, size := 0, 0
	for i, op := range r.ops {
		if op.Kind == oplog.Update && plain.replies[i].OK {
			edges += len(op.Adds) + len(op.Dels)
		}
		size += plain.replies[i].Bytes
	}
	r.set("http.bytes_per_response", float64(size)/float64(len(r.ops)), "B")
	if edges > 0 {
		r.set("wal.bytes_per_edge", float64(to.Service.WAL.AppendedBytes-from.Service.WAL.AppendedBytes)/float64(edges), "B")
	}
	acks := stat.Sorted(plain.millis(plain.writes, metered.ms))
	p.WriteSamples = len(acks)
	r.set("wal.ack_p50_ms", stat.Percentile(acks, 50), "ms")
	r.set("wal.ack_p95_ms", stat.Percentile(acks, 95), "ms")
	r.checkCompactions(to)
	var final *oracle.EdgeSet
	r.row.Checks, final = checkMixed(r.g, r.ops, plain.replies)
	if err := r.durability(ctx, plain, final); err != nil {
		return nil, 0, err
	}
	r.set("wal.recovery_s", r.row.Durability.RecoveryS, "s")

	r.srv.Kill()
	if r.srv, err = r.start(ctx, true); err != nil {
		return nil, 0, err
	}
	cl = NewClient(r.srv.URL, 1)
	defer cl.Close()
	profiled, err := r.runMixed(ctx, cl, true, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	var reads []Reply
	for i, op := range r.ops {
		if op.IsRead() {
			reads = append(reads, profiled.replies[i])
		}
	}
	ops, dropped := graft(rec, reads)
	r.set("obs.trace_overhead_ratio", stat.Median(profiled.millis(profiled.reads, metered.ms))/stat.Median(plain.millis(plain.reads, metered.ms)), "ratio")
	return ops, dropped, nil
}

// graft records the harness's spans around each traced call —
// client.request over http.roundtrip, which ends at the last body byte,
// while client.request also covers decoding the reply — and hangs the
// server's tree beneath them, one op id per request.
func graft(rec *spans.Recorder, replies []Reply) (ops []tracedOp, dropped int) {
	for i, rep := range replies {
		if !rep.OK {
			continue
		}
		var res struct {
			Profile *spans.Profile `json:"profile"`
		}
		decodeStart := time.Now()
		if json.Unmarshal(rep.Body, &res) != nil || res.Profile.Root() == nil {
			continue
		}
		decode := time.Since(decodeStart)
		root := res.Profile.Root()
		dropped += res.Profile.DroppedSpans
		req := rec.Add(i, "client.request", -1, rep.Start, rep.Latency+decode, map[string]int64{"response_bytes": int64(rep.Bytes)})
		rt := rec.Add(i, "http.roundtrip", req, rep.Start, rep.Latency, nil)
		if i >= traceFullOps {
			root = &spans.Node{Kind: root.Kind, StartUS: root.StartUS, DurationUS: root.DurationUS, Attrs: root.Attrs}
		}
		rec.Graft(i, rt, root)
		ops = append(ops, tracedOp{clientUS: float64(rep.Latency) / 1e3, st: spans.Analyze(res.Profile.Root())})
	}
	return ops, dropped
}

// counterMetrics reports the /stats counter deltas of the untraced
// timed passes, which are exact counts, and rpqd's peak resident set
// after them (VmHWM), which is not: it is set by when the garbage
// collector happened to run during the index build and falls into one
// of two modes a quarter apart, run by run. That is why memory is a
// layer metric here and not a gated one.
func (r *runner) counterMetrics(from, to ServerStats) error {
	rss, err := r.srv.PeakRSS()
	if err != nil {
		return err
	}
	r.set("rpqd.rss_mb", rss, "MiB")
	r.set("service.result_cache_hit_ratio", r.checkHitRatio(from, to), "ratio")
	exprHits := to.Service.ExprHits - from.Service.ExprHits
	if n := exprHits + to.Service.ExprMisses - from.Service.ExprMisses; n > 0 {
		r.set("service.expr_cache_hit_ratio", float64(exprHits)/float64(n), "ratio")
	}
	r.set("service.result_evictions", float64(to.Service.ResultEvictions-from.Service.ResultEvictions), "count")
	r.set("service.deduped", float64(to.Service.Deduped-from.Service.Deduped), "count")
	r.set("overlay.compactions", float64(to.Index.Updates.Compactions-from.Index.Updates.Compactions), "count")
	r.set("overlay.compaction_ms", float64(to.Index.Updates.LastCompaction)/1e6, "ms")
	r.set("overlay.swap_pause_us", float64(to.Index.Updates.LastSwapPause)/1e3, "us")
	r.set("wal.checkpoints", float64(to.Service.WAL.Checkpoints-from.Service.WAL.Checkpoints), "count")
	if fsyncs := to.Service.WAL.Fsyncs - from.Service.WAL.Fsyncs; fsyncs > 0 {
		r.set("wal.appends_per_fsync", float64(to.Service.WAL.Appended-from.Service.WAL.Appended)/float64(fsyncs), "ratio")
	}
	return nil
}

// spanMetrics derives the S metrics from the traced ops. A self-time
// metric is the median, over the ops in which the span kind occurs, of
// the kind's summed self time in the op; a count is the exact total
// divided by the number of traced ops.
func (r *runner) spanMetrics(ops []tracedOp, dropped int) traceSummary {
	sum := traceSummary{Workload: r.wl.Name, Seed: r.opt.Seed, Ops: len(ops), SelfUSByKind: map[string]float64{}, DroppedSpans: dropped}
	if len(ops) == 0 {
		r.problem("the traced pass returned no profile")
		return sum
	}
	n := float64(len(ops))
	selfOf := func(kinds ...string) float64 {
		var xs []float64
		for _, op := range ops {
			v, seen := 0.0, false
			for _, k := range kinds {
				if op.st.Count[k] > 0 {
					v, seen = v+op.st.SelfUS[k], true
				}
			}
			if seen {
				xs = append(xs, v)
			}
		}
		return stat.Median(xs)
	}
	attrs := map[string]float64{}
	var overhead []float64
	selfTotal := 0.0
	for _, op := range ops {
		sum.RootUS += op.st.RootUS / n
		for k, v := range op.st.SelfUS {
			sum.SelfUSByKind[k] += v / n
			selfTotal += v
		}
		for k, v := range op.st.Attr {
			attrs[k] += float64(v)
		}
		for k, v := range op.st.Count {
			attrs["#"+k] += float64(v)
		}
		overhead = append(overhead, op.clientUS-op.st.RootUS)
	}
	sum.SelfCoverage = selfTotal / (sum.RootUS * n)
	if sum.SelfCoverage < 0.9 || sum.SelfCoverage > 1.1 {
		r.problem("span self times cover %.2f of the server root spans, want within a tenth of 1", sum.SelfCoverage)
	}

	r.set("core.wavelet_visits_per_op", attrs["traverse.wavelet_visits"]/n, "count")
	r.set("core.product_nodes_per_op", attrs["traverse.product_nodes"]/n, "count")
	r.set("core.levels_per_op", attrs["#level"]/n, "count")
	r.set("core.traverse_self_us", selfOf("traverse", "level"), "us")
	r.set("query.plan_self_us", selfOf("plan"), "us")
	r.set("ltj.join_self_us", selfOf("ltj_join"), "us")
	r.set("query.rpq_step_self_us", selfOf("rpq_step"), "us")
	r.set("query.rpq_steps_per_op", attrs["#rpq_step"]/n, "count")
	r.set("service.compile_self_us", selfOf("compile", "expr_cache", "pattern_cache"), "us")
	r.set("service.result_cache_self_us", selfOf("result_cache"), "us")
	r.set("service.queue_wait_us", selfOf("queue_wait"), "us")
	r.set("service.eval_self_us", selfOf("eval"), "us")
	r.set("http.serialize_self_us", selfOf("serialize"), "us")
	r.set("http.overhead_us_p50", stat.Median(overhead), "us")
	return sum
}
