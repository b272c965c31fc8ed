package load

// MetricDef names one metric of BENCHMARK.json.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse, as a share of the parent's median, a
	// gated metric may get; 0 for the ungated per-layer metrics.
	Bound float64
}

// EndToEnd lists the gated metrics, printed by every untraced run.
var EndToEnd = []MetricDef{
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"index_bytes_per_triple", "B", "lower", 0.005},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the ungated layer metrics, printed by every traced
// run. A metric whose layer the workload does not exercise reads 0.
// Sources: P = in-process probe (package probe), S = self time or
// attribute of a span kind in rpqd's profile trees, C = /stats counter
// delta or client-side count.
var PerLayer = []MetricDef{
	// P
	{"bitvec.rank1_ns", "ns", "lower", 0},
	{"bitvec.select1_ns", "ns", "lower", 0},
	{"wavelet.traverse_many_ns_per_range", "ns", "lower", 0},
	{"wavelet.rank_ns", "ns", "lower", 0},
	{"ring.build_s", "s", "lower", 0},
	{"ring.backward_by_pred_ns", "ns", "lower", 0},
	{"ring.bytes_per_triple", "B", "lower", 0},
	{"pathexpr.parse_us", "us", "lower", 0},
	{"glushkov.build_us", "us", "lower", 0},
	{"glushkov.compile_us", "us", "lower", 0},
	{"glushkov.step_ns", "ns", "lower", 0},
	{"core.eval_c2v_us_p50", "us", "lower", 0},
	{"core.eval_v2v_us_p50", "us", "lower", 0},
	{"core.eval_us_p99", "us", "lower", 0},
	{"core.eval_interp_us_p50", "us", "lower", 0},
	{"core.eval_unbatched_us_p50", "us", "lower", 0},
	{"core.eval_nofast_us_p50", "us", "lower", 0},
	{"core.sharded_eval_us_p50", "us", "lower", 0},
	{"core.working_bytes", "B", "lower", 0},
	{"core.allocs_per_eval", "count", "lower", 0},
	{"overlay.eval_us_p50", "us", "lower", 0},
	{"overlay.apply_us_per_batch", "us", "lower", 0},
	{"service.inproc_us_p50", "us", "lower", 0},
	{"wal.append_us_p50", "us", "lower", 0},
	{"wal.fsync_us_p50", "us", "lower", 0},
	// S
	{"core.wavelet_visits_per_op", "count", "lower", 0},
	{"core.product_nodes_per_op", "count", "lower", 0},
	{"core.levels_per_op", "count", "lower", 0},
	{"core.traverse_self_us", "us", "lower", 0},
	{"query.plan_self_us", "us", "lower", 0},
	{"ltj.join_self_us", "us", "lower", 0},
	{"query.rpq_step_self_us", "us", "lower", 0},
	{"query.rpq_steps_per_op", "count", "lower", 0},
	{"service.compile_self_us", "us", "lower", 0},
	{"service.result_cache_self_us", "us", "lower", 0},
	{"service.queue_wait_us", "us", "lower", 0},
	{"service.eval_self_us", "us", "lower", 0},
	{"http.overhead_us_p50", "us", "lower", 0},
	{"http.serialize_self_us", "us", "lower", 0},
	{"http.bytes_per_response", "B", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
	// C
	{"service.result_cache_hit_ratio", "ratio", "higher", 0},
	{"service.expr_cache_hit_ratio", "ratio", "higher", 0},
	{"service.result_evictions", "count", "lower", 0},
	{"service.deduped", "count", "higher", 0},
	{"overlay.compactions", "count", "higher", 0},
	{"overlay.compaction_ms", "ms", "lower", 0},
	{"overlay.swap_pause_us", "us", "lower", 0},
	{"wal.bytes_per_edge", "B", "lower", 0},
	{"wal.appends_per_fsync", "ratio", "higher", 0},
	{"wal.checkpoints", "count", "higher", 0},
	{"wal.ack_p50_ms", "ms", "lower", 0},
	{"wal.ack_p95_ms", "ms", "lower", 0},
	{"wal.recovery_s", "s", "lower", 0},
	{"rpqd.rss_mb", "MiB", "lower", 0},
	// open loop (rpq_cached)
	{"service.open_p50_ms", "ms", "lower", 0},
	{"service.open_p99_ms", "ms", "lower", 0},
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.backlog_s", "s", "lower", 0},
}
