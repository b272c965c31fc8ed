// Command rpqbench regenerates the paper's evaluation (§5): it builds a
// synthetic Wikidata-shaped graph, indexes it with the ring and the three
// baseline systems, generates a query log with the Table 1 pattern mix,
// runs every query under a timeout and result cap, and prints Table 1,
// Table 2 and the Fig. 8 per-pattern distributions.
//
// Usage:
//
//	rpqbench [-nodes N] [-edges N] [-preds N] [-queries N]
//	         [-timeout D] [-limit N] [-seed N]
//	         [-systems ring,bfs,alp,rel] [-table1] [-table2] [-fig8] [-build]
//	         [-workers N] [-shards K]
//
// Without a table selector, everything is printed. With -workers N the
// query log is additionally driven through the concurrent service pool
// (N workers over the shared ring index), reporting aggregate
// throughput and per-query latency for a cold pass and a warm
// (result-cache) pass. With -shards K the log is also replayed on a
// K-shard index next to the single ring, reporting per-query latency
// overall and on the closure-heavy subset where the intra-query shard
// parallelism concentrates.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/harness"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/query"
	"ringrpq/internal/ring"
	"ringrpq/internal/service"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 20000, "graph nodes |V|")
		edges   = flag.Int("edges", 100000, "edge draws before dedup/completion")
		preds   = flag.Int("preds", 60, "base predicates |P|")
		queries = flag.Int("queries", 400, "queries in the generated log")
		timeout = flag.Duration("timeout", 5*time.Second, "per-query timeout (paper: 60s)")
		limit   = flag.Int("limit", 1000000, "result cap per query (paper: 1M)")
		seed    = flag.Int64("seed", 1, "generation seed")
		systems = flag.String("systems", "ring,bfs,alp,rel", "comma-separated systems to run")
		table1  = flag.Bool("table1", false, "print only Table 1")
		table2  = flag.Bool("table2", false, "print only Table 2")
		fig8    = flag.Bool("fig8", false, "print only Fig. 8")
		build   = flag.Bool("build", false, "print only index construction stats")
		workers = flag.Int("workers", 0, "also drive the log through the service pool with this many workers (0 = off)")
		shards  = flag.Int("shards", 0, "also compare single-ring vs K-shard query latency (0 = off)")
		jsonOut = flag.String("json", "", "run the batched-vs-unbatched ablation and write machine-readable results to this file (e.g. BENCH_PR3.json)")
		patOut  = flag.String("patterns", "", "run the graph-pattern workload (BGP-only vs mixed BGP+RPQ) and write machine-readable results to this file (e.g. BENCH_PR4.json)")
		updOut  = flag.String("updates", "", "run the live-update workload (read latency vs overlay fill, swap pause) and write machine-readable results to this file (e.g. BENCH_PR5.json)")
		subsOut = flag.String("subs", "", "run the standing-subscription workload (incremental delta maintenance vs full re-evaluation) and write machine-readable results to this file (e.g. BENCH_PR6.json)")
		cmpOut  = flag.String("compiled", "", "run the compiled-vs-interpreted stepper ablation plus the cross-query grouping comparison and write machine-readable results to this file (e.g. BENCH_PR7.json)")
	)
	flag.Parse()
	all := !*table1 && !*table2 && !*fig8 && !*build && *jsonOut == "" && *patOut == "" && *updOut == "" && *subsOut == "" && *cmpOut == ""

	fmt.Printf("generating graph: %d nodes, %d edge draws, %d predicates (seed %d)\n",
		*nodes, *edges, *preds, *seed)
	g := datagen.Generate(datagen.Config{
		Seed: *seed, Nodes: *nodes, Edges: *edges, Preds: *preds,
	})
	fmt.Printf("completed graph: %d edges, %d nodes, %d predicates (with inverses)\n\n",
		g.Len(), g.NumNodes(), g.NumCompletedPreds())

	qs := workload.Generate(g, workload.Config{Seed: *seed + 1, Total: *queries})
	if *table1 || all {
		fmt.Println(harness.RenderTable1(qs))
	}
	if *table1 && !all && *workers == 0 {
		return
	}

	var systemsToRun []harness.System
	systemNames := strings.Split(*systems, ",")
	if !(*build || *table2 || *fig8 || all) {
		// Only the service-pool section remains; it builds just the
		// ring itself rather than every system in -systems.
		systemNames = nil
	}
	for _, name := range systemNames {
		start := time.Now()
		var sys harness.System
		switch strings.TrimSpace(name) {
		case "ring":
			sys = harness.NewRing(g, ring.WaveletMatrix)
		case "ringwt":
			sys = harness.NewRing(g, ring.WaveletTree)
		case "bfs":
			sys = harness.NewBFS(g)
		case "alp":
			sys = harness.NewALP(g)
		case "rel":
			sys = harness.NewRelational(g)
		default:
			fmt.Fprintf(os.Stderr, "unknown system %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("built %-12s in %8.2fs  (%7.2f bytes/edge)\n",
			sys.Name(), time.Since(start).Seconds(),
			float64(sys.SizeBytes())/float64(g.Len()))
		systemsToRun = append(systemsToRun, sys)
	}
	fmt.Println()

	if *table2 || *fig8 || all {
		var reports []harness.Report
		for _, sys := range systemsToRun {
			fmt.Printf("running %d queries on %s (timeout %v, limit %d)...\n",
				len(qs), sys.Name(), *timeout, *limit)
			start := time.Now()
			rep, err := harness.Run(sys, qs, *limit, *timeout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  done in %.2fs\n", time.Since(start).Seconds())
			reports = append(reports, rep)
		}
		fmt.Println()

		if *table2 || all {
			fmt.Println(harness.RenderTable2(reports, g.Len()))
			if len(reports) >= 2 {
				for i := 1; i < len(reports); i++ {
					fmt.Printf("speedup of %s over %s: %.2fx\n",
						reports[0].System, reports[i].System,
						harness.Speedup(reports[0], reports[i]))
				}
				fmt.Println()
			}
		}
		if *fig8 || all {
			fmt.Println(harness.RenderFig8(reports))
		}
	}

	if *workers > 0 {
		ringSys := findRing(systemsToRun)
		if ringSys == nil {
			fmt.Println("building Ring for the service pool...")
			ringSys = harness.NewRing(g, ring.WaveletMatrix)
		}
		runServicePool(ringSys, qs, *workers, *timeout, *limit)
	}

	if *shards > 1 {
		runShardComparison(g, qs, *shards, *timeout, *limit)
	}

	cfg := benchConfig{
		Nodes: *nodes, Edges: *edges, Preds: *preds, Queries: *queries,
		Seed: *seed, Timeout: timeout.String(), Limit: *limit,
		Env: benchEnv(),
	}

	if *jsonOut != "" {
		runBatchComparison(g, qs, *timeout, *limit, *jsonOut, cfg)
	}

	if *patOut != "" {
		runPatternBench(g, *queries, *timeout, *limit, *patOut, cfg)
	}

	if *updOut != "" {
		runUpdateBench(g, qs, *timeout, *limit, *updOut, cfg)
	}

	if *subsOut != "" {
		runSubsBench(g, qs, *timeout, *subsOut, cfg)
	}

	if *cmpOut != "" {
		w := *workers
		if w <= 0 {
			w = 4
		}
		runCompiledComparison(g, qs, *timeout, *limit, w, *cmpOut, cfg)
	}
}

// patternReport is the BENCH_PR4.json schema: the graph-pattern
// executor over the generated star/path/hybrid workload, split into
// the BGP-only subset, the mixed BGP+RPQ subset, and all.
type patternReport struct {
	Bench     string               `json:"bench"`
	Config    benchConfig          `json:"config"`
	Workloads map[string]modeStats `json:"workloads"`
}

// runPatternBench replays a generated graph-pattern log on the
// selectivity-planned LTJ+RPQ executor, reporting p50/p95 latency and
// throughput for BGP-only vs mixed BGP+RPQ patterns, and writes the
// JSON report. Each pattern is measured as the best of three runs
// after a warm-up pass (planner statistics and automata are shared, so
// neither subset pays one-time construction).
func runPatternBench(g *triples.Graph, total int, timeout time.Duration, limit int, path string, cfg benchConfig) {
	fmt.Printf("graph-pattern workload: %d patterns, BGP-only vs mixed BGP+RPQ (timeout %v, limit %d)\n",
		total, timeout, limit)
	pqs := workload.GeneratePatterns(g, workload.PatternConfig{Seed: cfg.Seed + 2, Total: total})
	x := query.NewExec(g, ring.New(g, ring.WaveletMatrix), nil)

	type subset struct {
		lat      []time.Duration
		timeouts int
	}
	subsets := map[string]*subset{"all": {}, "bgp": {}, "mixed": {}}
	skipped := 0
	for _, pq := range pqs {
		q, err := query.Parse(pq.Text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pattern workload: %q: %v\n", pq.Text, err)
			os.Exit(1)
		}
		opts := query.Options{Limit: limit, Timeout: timeout}
		run := func() (time.Duration, bool, bool) {
			t0 := time.Now()
			err := x.Run(q, opts, func(query.Binding) bool { return true })
			d := time.Since(t0)
			if errors.Is(err, query.ErrTimeout) {
				return d, true, false
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pattern workload: %q: %v\n", pq.Text, err)
				return d, false, true
			}
			return d, false, false
		}
		run() // warm-up: planner stats, automata, mask arrays
		best := time.Duration(1<<63 - 1)
		completed, skip := 0, false
		for rep := 0; rep < 3; rep++ {
			d, to, sk := run()
			if sk {
				skip = true
				break
			}
			if to {
				continue // a transiently-slow rep must not discard a measured best
			}
			completed++
			if d < best {
				best = d
			}
			if d > 250*time.Millisecond {
				break
			}
		}
		if skip {
			skipped++
			continue
		}
		timedOut := completed == 0
		names := []string{"all", "bgp"}
		if pq.HasRPQ {
			names[1] = "mixed"
		}
		for _, name := range names {
			s := subsets[name]
			if timedOut {
				s.timeouts++
			} else {
				s.lat = append(s.lat, best)
			}
		}
	}
	if skipped > 0 {
		fmt.Printf("  %d patterns skipped on evaluation errors\n", skipped)
	}

	report := patternReport{
		Bench:     "graph-pattern executor: selectivity-planned LTJ+RPQ pipeline (PR4)",
		Config:    cfg,
		Workloads: map[string]modeStats{},
	}
	for _, name := range []string{"all", "bgp", "mixed"} {
		s := subsets[name]
		st := summarize(s.lat, s.timeouts)
		report.Workloads[name] = st
		fmt.Printf("  %-6s %4d patterns  p50 %8.0fµs  p95 %8.0fµs  mean %8.0fµs  %8.1f q/s  timeouts %d\n",
			name, st.Queries, st.P50us, st.P95us, st.MeanUs, st.QPS, st.Timeouts)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding %s: %v\n", path, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s\n", path)
}

// benchConfig records the generation parameters in the JSON report so a
// benchmark run is reproducible from the file alone.
type benchConfig struct {
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	Preds   int     `json:"preds"`
	Queries int     `json:"queries"`
	Seed    int64   `json:"seed"`
	Timeout string  `json:"timeout"`
	Limit   int     `json:"limit"`
	Env     envInfo `json:"env"`
}

// envInfo stamps the machine and build a report came from, so numbers
// from different hosts or commits are never compared blindly.
type envInfo struct {
	Time       string `json:"time"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

// benchEnv gathers the environment stamp; the CPU model and git commit
// are best-effort (absent on unsupported platforms or non-checkouts).
func benchEnv() envInfo {
	e := envInfo{
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					e.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// modeStats summarises one evaluation mode over one workload subset.
type modeStats struct {
	Queries  int     `json:"queries"`
	Timeouts int     `json:"timeouts"`
	P50us    float64 `json:"p50_us"`
	P95us    float64 `json:"p95_us"`
	MeanUs   float64 `json:"mean_us"`
	TotalMs  float64 `json:"total_ms"`
	QPS      float64 `json:"qps"`
}

// workloadReport pairs both modes over one subset with their speedups.
// Mismatches counts queries whose batched and unbatched result counts
// disagreed; any nonzero value means the run is invalid (the tool also
// exits nonzero), so a committed report provably passed the cross-check.
type workloadReport struct {
	Batched        modeStats `json:"batched"`
	Unbatched      modeStats `json:"unbatched"`
	SpeedupTotal   float64   `json:"speedup_total"`
	SpeedupGeomean float64   `json:"speedup_geomean"`
	Mismatches     int       `json:"mismatches"`
}

// benchReport is the BENCH_PR3.json schema: the frontier-batching
// ablation over the standard Table 1 workload, split into the
// closure-heavy subset (expressions with * or +), the rest, and all.
type benchReport struct {
	Bench     string                    `json:"bench"`
	Config    benchConfig               `json:"config"`
	Workloads map[string]workloadReport `json:"workloads"`
}

func summarize(lat []time.Duration, timeouts int) modeStats {
	st := modeStats{Queries: len(lat) + timeouts, Timeouts: timeouts}
	if len(lat) == 0 {
		return st
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	st.P50us = float64(sorted[len(sorted)/2].Microseconds())
	st.P95us = float64(sorted[len(sorted)*95/100].Microseconds())
	st.MeanUs = float64(total.Microseconds()) / float64(len(sorted))
	st.TotalMs = total.Seconds() * 1000 // not Milliseconds(): sub-ms subsets must not truncate to 0
	if total > 0 {
		st.QPS = float64(len(sorted)) / total.Seconds()
	}
	return st
}

// runBatchComparison replays the query log on one engine in batched and
// DisableBatching mode, reporting p50/p95 latency and throughput per
// workload subset plus total and geomean speedups, and writes the JSON
// report. Each (query, mode) is measured as the best of three runs
// (one warm-up run per query first, so neither mode pays the one-time
// Glushkov compilation), and both modes must agree on every result
// count.
func runBatchComparison(g *triples.Graph, qs []workload.Query, timeout time.Duration, limit int, path string, cfg benchConfig) {
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	fmt.Printf("batching ablation: %d queries, batched vs -DisableBatching (timeout %v, limit %d)\n",
		len(qs), timeout, limit)
	eng := core.NewEngine(ring.New(g, ring.WaveletMatrix), ids)

	type outcome struct {
		d        time.Duration
		n        int
		timedOut bool
		skip     bool
	}
	run := func(q workload.Query, disable bool, reps int) outcome {
		cq := core.Query{Subject: core.Variable, Object: core.Variable, Expr: q.Expr}
		if q.Subject != "" {
			id, ok := g.Nodes.Lookup(q.Subject)
			if !ok {
				return outcome{skip: true}
			}
			cq.Subject = int64(id)
		}
		if q.Object != "" {
			id, ok := g.Nodes.Lookup(q.Object)
			if !ok {
				return outcome{skip: true}
			}
			cq.Object = int64(id)
		}
		opts := core.Options{Limit: limit, Timeout: timeout, DisableBatching: disable}
		best := outcome{d: time.Duration(1<<63 - 1)}
		for rep := 0; rep < reps; rep++ {
			n := 0
			t0 := time.Now()
			_, err := eng.Eval(context.Background(), cq, opts, func(uint32, uint32) bool { n++; return true })
			d := time.Since(t0)
			if errors.Is(err, core.ErrTimeout) {
				return outcome{timedOut: true}
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "batching ablation: %s: %v\n", q, err)
				return outcome{skip: true}
			}
			if d < best.d {
				best = outcome{d: d, n: n}
			}
			// Long queries are noise-free; don't triple their cost.
			if d > 250*time.Millisecond {
				break
			}
		}
		return best
	}

	type subset struct {
		latB, latU           []time.Duration
		timeoutsB, timeoutsU int
		logSpeedups          float64
		pairs, mismatches    int
	}
	subsets := map[string]*subset{"all": {}, "closure": {}, "other": {}}
	for _, q := range qs {
		// Warm the shared compilation memo so the first measured run of
		// either mode excludes automaton construction.
		run(q, true, 1)
		b := run(q, false, 3)
		u := run(q, true, 3)
		if b.skip || u.skip {
			continue
		}
		names := []string{"all", "other"}
		if strings.ContainsAny(q.Pattern, "*+") {
			names[1] = "closure"
		}
		for _, name := range names {
			s := subsets[name]
			if b.timedOut {
				s.timeoutsB++
			} else {
				s.latB = append(s.latB, b.d)
			}
			if u.timedOut {
				s.timeoutsU++
			} else {
				s.latU = append(s.latU, u.d)
			}
			if b.timedOut || u.timedOut {
				continue
			}
			if b.n != u.n {
				s.mismatches++
				fmt.Fprintf(os.Stderr, "batching ablation: %s: batched %d results, unbatched %d\n", q, b.n, u.n)
				continue
			}
			if b.d > 0 && u.d > 0 {
				s.logSpeedups += math.Log(float64(u.d) / float64(b.d))
				s.pairs++
			}
		}
	}

	report := benchReport{
		Bench:     "frontier-batched product-graph traversal (PR3)",
		Config:    cfg,
		Workloads: map[string]workloadReport{},
	}
	for _, name := range []string{"all", "closure", "other"} {
		s := subsets[name]
		wr := workloadReport{
			Batched:   summarize(s.latB, s.timeoutsB),
			Unbatched: summarize(s.latU, s.timeoutsU),
		}
		if wr.Batched.TotalMs > 0 {
			wr.SpeedupTotal = wr.Unbatched.TotalMs / wr.Batched.TotalMs
		}
		if s.pairs > 0 {
			wr.SpeedupGeomean = math.Exp(s.logSpeedups / float64(s.pairs))
		}
		wr.Mismatches = s.mismatches
		report.Workloads[name] = wr
		fmt.Printf("  %-8s %4d queries  batched p50 %8.0fµs p95 %8.0fµs  unbatched p50 %8.0fµs p95 %8.0fµs  speedup total %.2fx geomean %.2fx\n",
			name, wr.Batched.Queries, wr.Batched.P50us, wr.Batched.P95us,
			wr.Unbatched.P50us, wr.Unbatched.P95us, wr.SpeedupTotal, wr.SpeedupGeomean)
		if s.mismatches > 0 {
			fmt.Printf("  %-8s RESULT MISMATCHES: %d\n", name, s.mismatches)
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding %s: %v\n", path, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("  wrote %s\n", path)
	if n := subsets["all"].mismatches; n > 0 {
		fmt.Fprintf(os.Stderr, "batching ablation: %d result mismatches — report is invalid\n", n)
		os.Exit(1)
	}
}

// runShardComparison replays the query log on the single-ring engine
// and on a K-shard sharded engine, verifying the result counts agree
// and reporting latency side by side — overall and on the
// closure-heavy subset (expressions with * or +), where cross-shard
// expressions pay one descent per sub-ring per level.
func runShardComparison(g *triples.Graph, qs []workload.Query, k int, timeout time.Duration, limit int) {
	ids := func(s pathexpr.Sym) (uint32, bool) { return g.PredID(s.Name, s.Inverse) }
	fmt.Printf("shard comparison: single ring vs %d shards, %d queries (timeout %v, limit %d)\n",
		k, len(qs), timeout, limit)
	t0 := time.Now()
	r := ring.New(g, ring.WaveletMatrix)
	singleBuild := time.Since(t0)
	t0 = time.Now()
	set := ring.NewShardSet(g, k, nil, ring.WaveletMatrix)
	shardBuild := time.Since(t0)
	fmt.Printf("  build: single %.2fs, %d-shard %.2fs (sub-rings built in parallel)\n",
		singleBuild.Seconds(), k, shardBuild.Seconds())

	single := core.NewEngine(r, ids)
	sharded := core.NewShardedEngine(set, ids)

	type class struct {
		name                string
		singleNS, shardedNS time.Duration
		n                   int
	}
	classes := map[bool]*class{
		false: {name: "other"},
		true:  {name: "closure-heavy"},
	}
	run := func(e core.Evaluator, q workload.Query) (n int, timedOut bool, d time.Duration) {
		sid, oid := int64(core.Variable), int64(core.Variable)
		if q.Subject != "" {
			id, ok := g.Nodes.Lookup(q.Subject)
			if !ok {
				return 0, false, 0
			}
			sid = int64(id)
		}
		if q.Object != "" {
			id, ok := g.Nodes.Lookup(q.Object)
			if !ok {
				return 0, false, 0
			}
			oid = int64(id)
		}
		t0 := time.Now()
		_, err := e.Eval(context.Background(), core.Query{Subject: sid, Expr: q.Expr, Object: oid},
			core.Options{Limit: limit, Timeout: timeout},
			func(uint32, uint32) bool { n++; return true })
		if errors.Is(err, core.ErrTimeout) {
			timedOut = true
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "shard comparison: %s: %v\n", q, err)
		}
		return n, timedOut, time.Since(t0)
	}
	mismatches, timeouts := 0, 0
	for _, q := range qs {
		closureHeavy := strings.ContainsAny(q.Pattern, "*+")
		c := classes[closureHeavy]
		n1, to1, d1 := run(single, q)
		nK, toK, dK := run(sharded, q)
		switch {
		case to1 || toK:
			// A timed-out engine returns a legitimately partial count;
			// only completed runs are comparable.
			timeouts++
		case n1 != nK:
			mismatches++
			fmt.Fprintf(os.Stderr, "shard comparison: %s: single %d results, sharded %d\n", q, n1, nK)
		}
		c.singleNS += d1
		c.shardedNS += dK
		c.n++
	}
	if timeouts > 0 {
		fmt.Printf("  %d queries timed out on at least one engine (excluded from the mismatch check)\n", timeouts)
	}
	if mismatches > 0 {
		fmt.Printf("  RESULT MISMATCHES: %d\n", mismatches)
	}
	total := &class{name: "all"}
	for _, c := range classes {
		total.singleNS += c.singleNS
		total.shardedNS += c.shardedNS
		total.n += c.n
	}
	for _, c := range []*class{classes[true], classes[false], total} {
		if c.n == 0 {
			continue
		}
		speedup := float64(c.singleNS) / float64(c.shardedNS)
		fmt.Printf("  %-14s %5d queries   single %10s   %d-shard %10s   speedup %.2fx\n",
			c.name, c.n,
			(c.singleNS / time.Duration(c.n)).Round(time.Microsecond),
			k,
			(c.shardedNS / time.Duration(c.n)).Round(time.Microsecond),
			speedup)
	}
}

// findRing picks the ring system out of the -systems selection.
func findRing(systems []harness.System) *harness.Ring {
	for _, sys := range systems {
		if r, ok := sys.(*harness.Ring); ok {
			return r
		}
	}
	return nil
}

// poolBackend adapts the (graph, ring) pair to the service worker
// interface; each clone owns a private core engine over the shared
// immutable index. It mirrors ringrpq.DB.queryNode's endpoint
// semantics ('?' prefix = variable, unknown constants = empty result)
// so pool numbers match what the public Service measures.
type poolBackend struct {
	g *triples.Graph
	r *ring.Ring
	e *core.Engine
}

func newPoolBackend(g *triples.Graph, r *ring.Ring) *poolBackend {
	return &poolBackend{g: g, r: r, e: core.NewEngine(r, func(s pathexpr.Sym) (uint32, bool) {
		return g.PredID(s.Name, s.Inverse)
	})}
}

func (b *poolBackend) Clone() service.Backend { return newPoolBackend(b.g, b.r) }

func (b *poolBackend) Eval(ctx context.Context, subject string, node pathexpr.Node, object string, limit int, timeout time.Duration, emit func(service.Solution) bool) error {
	q := core.Query{Subject: core.Variable, Object: core.Variable, Expr: node}
	if !strings.HasPrefix(subject, "?") {
		id, ok := b.g.Nodes.Lookup(subject)
		if !ok {
			return nil
		}
		q.Subject = int64(id)
	}
	if !strings.HasPrefix(object, "?") {
		id, ok := b.g.Nodes.Lookup(object)
		if !ok {
			return nil
		}
		q.Object = int64(id)
	}
	_, err := b.e.Eval(context.Background(), q, core.Options{Limit: limit, Timeout: timeout}, func(s, o uint32) bool {
		return emit(service.Solution{Subject: b.g.Nodes.Name(s), Object: b.g.Nodes.Name(o)})
	})
	return err
}

// runServicePool replays the query log through the concurrent service
// (2×workers clients) twice — a cold pass and a warm pass that hits
// the result cache — and prints aggregate throughput next to the
// per-query latency distribution.
func runServicePool(ringSys *harness.Ring, qs []workload.Query, workers int, timeout time.Duration, limit int) {
	if len(qs) == 0 {
		fmt.Println("service pool: empty query log, nothing to run")
		return
	}
	svc := service.New(newPoolBackend(ringSys.Graph(), ringSys.Ring()), service.Config{
		Workers:        workers,
		QueueDepth:     4 * workers,
		DefaultTimeout: timeout,
	})
	defer svc.Close()

	reqs := make([]service.Request, len(qs))
	for i, q := range qs {
		subject, object := q.Subject, q.Object
		if subject == "" {
			subject = "?s"
		}
		if object == "" {
			object = "?o"
		}
		reqs[i] = service.Request{
			Subject: subject, Expr: pathexpr.String(q.Expr), Object: object,
			Limit: limit, Count: true,
		}
	}

	clients := 2 * workers
	fmt.Printf("service pool: %d workers, %d clients, %d queries (timeout %v, limit %d)\n",
		workers, clients, len(reqs), timeout, limit)
	for _, pass := range []string{"cold", "warm"} {
		lat := make([]time.Duration, len(reqs))
		var next, timeouts atomic.Int64
		ctx := context.Background()
		hitsBefore := svc.Stats().Hits
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					t0 := time.Now()
					res := svc.Count(ctx, reqs[i])
					lat[i] = time.Since(t0)
					if errors.Is(res.Err, core.ErrTimeout) {
						timeouts.Add(1)
					} else if res.Err != nil {
						fmt.Fprintf(os.Stderr, "service: query %d: %v\n", i, res.Err)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		fmt.Printf("  %-5s %8.2fs wall  %10.1f queries/sec  mean %10s  median %10s  p95 %10s  timeouts %d  cache hits %d\n",
			pass, elapsed.Seconds(), float64(len(reqs))/elapsed.Seconds(),
			total/time.Duration(len(lat)), lat[len(lat)/2], lat[len(lat)*95/100],
			timeouts.Load(), svc.Stats().Hits-hitsBefore)
	}
}
