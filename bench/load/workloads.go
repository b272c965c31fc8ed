// Package load is the benchmark harness: it starts a real rpqd child,
// drives it over loopback HTTP with the fixed work of an op log, checks
// a sample of the answers against package oracle, and reports every
// metric of BENCHMARK.json by name and unit.
package load

import (
	"ringrpq/bench/oplog"
	"ringrpq/bench/oracle"
	"ringrpq/internal/triples"
)

// DatasetSeed fixes both graphs; the run's --seed only draws the op
// log, so every run of a workload queries the same data.
const DatasetSeed = 1

// GraphSpec names one generated graph (cmd/datagen's parameters).
type GraphSpec struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edge_draws"`
	Preds int    `json:"preds"`
	// LoadRefS is how long the harness needs to load and index the graph
	// on the reference box when nothing disturbs it (the least of forty
	// runs): the anchor of setup_s's metering, as MeterRef is of a
	// pass's.
	LoadRefS float64 `json:"harness_load_ref_s"`
}

var (
	// g1m is about 1.35 M completed triples; rpqd indexes it in ~2.5 s.
	g1m = GraphSpec{Name: "g1m", Nodes: 200000, Edges: 1000000, Preds: 60, LoadRefS: 1.2}
	// g100k is about 150 k completed triples.
	g100k = GraphSpec{Name: "g100k", Nodes: 20000, Edges: 100000, Preds: 60, LoadRefS: 0.1}
)

// Op-log sizes. They are constants of the benchmark, the same on both
// commits of a comparison: each was sized once so that three latency
// passes and three throughput passes fit run_seconds on a 2-core box,
// then frozen.
const (
	staticPool  = 1250 // distinct Table-1 queries every seed draws from (see oplog.FromPool)
	staticOps   = 1000
	cachedPool  = 300 // distinct queries behind the Zipf stream; ≪ the 4096-entry result cache
	cachedOps   = 5000
	cachedZipfS = 1.1
	// Of the generator's graph patterns roughly one in seven passes the
	// oracle's cost bound, and thirty of those are on the frozen list of
	// patterns the planner mishandles, so 2000 candidates give the 263 ops
	// of every pattern_select log (see oplog.Patterns).
	patternCandidates = 2000

	// mixed_rw is one pass over non-idempotent ops, so its length, not
	// its pass count, follows --seconds: at about 800 ops a second on this
	// box the pass fills them.
	mixedOpsPerSecond = 800
	mixedWriteRatio   = 0.1
	mixedWarmReads    = 500

	// openLoopRate is the fixed arrival rate of rpq_cached's open-loop
	// phase, about half that workload's closed-loop ops_per_s here.
	openLoopRate    = 2500.0 // 1/s
	openLoopSeconds = 8
)

// Workload is one traffic mix.
type Workload struct {
	Name, Why string
	Graph     GraphSpec
	// Flags are rpqd's flags besides -data, -addr and, for a Durable
	// workload, -wal-dir <fresh dir> -fsync always.
	Flags   []string
	Durable bool
	// Ops draws the op log. or is the oracle over the unmodified graph.
	Ops func(g *triples.Graph, or *oracle.Oracle, seed int64, seconds int) []oplog.Op
	// TailPercentile is the percentile read_p99_ms is taken at. The
	// sample must leave ten ops beyond it (stat.TailPercentile caps it),
	// and it must not sit where the workload's latency distribution
	// falls off a cliff, or the count of ops beyond the cliff, which
	// varies with the seed, decides the metric: see README.md.
	TailPercentile float64
	// RefWork meters the timed passes by reference work interleaved with
	// the requests (refwork.go) instead of by the harness's own CPU per
	// request, which tracks the box only where requests are short and
	// many (meter.go).
	RefWork bool
	// MeterRefUS anchors the metering of timed passes (meter.go).
	MeterRefUS MeterRef
	// HitRatio is the range the result-cache hit ratio over the timed
	// passes must fall in; a run outside it is misconfigured and fails.
	HitRatio [2]float64
	// OpenLoop adds the fixed-rate phase to the traced run.
	OpenLoop bool
}

// MeterRef is what a pass's meter reads, in microseconds, on the 2-core
// reference box when nothing else disturbs it, at one connection and at
// the throughput passes' connections: the harness's own CPU per request
// or, with RefWork, the time of one piece of reference work. Each is
// about the least value seen over some thirty passes, frozen.
type MeterRef struct{ Latency, Throughput float64 }

// Workloads lists the benchmark's workloads in BENCHMARK.json's order.
var Workloads = []Workload{
	{
		Name:  "rpq_static",
		Why:   "the paper's experiment: distinct Table-1 queries scan past a 64-entry result cache, so time is core/wavelet/bitvec/glushkov",
		Graph: g1m, Flags: []string{"-result-cache", "64"},
		Ops: func(g *triples.Graph, _ *oracle.Oracle, seed int64, _ int) []oplog.Op {
			return oplog.FromPool(g, DatasetSeed, seed, staticPool, staticOps)
		},
		TailPercentile: 95,
		MeterRefUS:     MeterRef{Latency: 148, Throughput: 176},
		HitRatio:       [2]float64{0, 0.02},
	},
	{
		Name:  "rpq_cached",
		Why:   "Zipf stream over 300 queries that fit the result cache: the engine idles and time is HTTP, canonicalisation, cache lookup and JSON",
		Graph: g1m,
		Ops: func(g *triples.Graph, _ *oracle.Oracle, seed int64, _ int) []oplog.Op {
			return oplog.Zipf(g, seed, cachedPool, cachedOps, cachedZipfS)
		},
		TailPercentile: 99,
		MeterRefUS:     MeterRef{Latency: 99, Throughput: 87},
		HitRatio:       [2]float64{0.9, 1},
		OpenLoop:       true,
	},
	{
		Name:  "pattern_select",
		Why:   "star/path/hybrid joins: planner, leapfrog join and hundreds of tiny bound-endpoint evaluations per request instead of one frontier",
		Graph: g100k, Flags: []string{"-result-cache", "64"},
		Ops: func(g *triples.Graph, or *oracle.Oracle, seed int64, _ int) []oplog.Op {
			return oplog.Patterns(g, DatasetSeed, seed, patternCandidates, or.Affordable)
		},
		TailPercentile: 90,
		RefWork:        true,
		MeterRefUS:     MeterRef{Latency: 350, Throughput: 350},
		HitRatio:       [2]float64{0, 1},
	},
	{
		Name:  "mixed_rw",
		Why:   "a tenth of the ops are update batches under fsync=always: reads cross the overlay union while WAL, compaction and checkpoints run",
		Graph: g100k, Flags: []string{"-compact-threshold", "1000"}, Durable: true,
		Ops: func(g *triples.Graph, _ *oracle.Oracle, seed int64, seconds int) []oplog.Op {
			return oplog.Mixed(g, seed, oplog.MixedConfig{Total: mixedOpsPerSecond * seconds, WriteRatio: mixedWriteRatio})
		},
		TailPercentile: 99,
		MeterRefUS:     MeterRef{Latency: 175},
		HitRatio:       [2]float64{0, 1},
	},
}

// Find returns the workload of that name.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
