// Benchmarks regenerating the paper's evaluation (§5). Each table and
// figure has a bench target, and this file is their one home.
//
//	Table 1  → BenchmarkTable1Workload
//	Table 2  → BenchmarkTable2 (sub-benchmarks per system; space is
//	           reported as bytes/edge metrics)
//	Fig. 8   → BenchmarkFig8 (sub-benchmarks per pattern and system)
//	§5 index construction → BenchmarkRingConstruction
//	Design-choice ablations (§4/§6) → BenchmarkAblation*
package ringrpq

import (
	"context"
	"sync"
	"testing"
	"time"

	"ringrpq/internal/core"
	"ringrpq/internal/datagen"
	"ringrpq/internal/glushkov"
	"ringrpq/internal/harness"
	"ringrpq/internal/pathexpr"
	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
	"ringrpq/internal/workload"
)

// The benchmark fixture: one synthetic Wikidata-shaped graph and query
// log shared by every bench, built lazily.
var bench struct {
	once    sync.Once
	g       *triples.Graph
	qs      []workload.Query
	ring    *harness.Ring
	ringWT  *harness.Ring
	bfs     *harness.BFS
	alp     *harness.ALP
	rel     *harness.Relational
	byPat   map[string][]workload.Query
	timeout time.Duration
	limit   int
}

func setup() {
	bench.once.Do(func() {
		bench.g = datagen.Generate(datagen.Config{
			Seed: 1, Nodes: 3000, Edges: 15000, Preds: 30,
		})
		bench.qs = workload.Generate(bench.g, workload.Config{Seed: 2, Total: 120})
		bench.ring = harness.NewRing(bench.g, ring.WaveletMatrix)
		bench.ringWT = harness.NewRing(bench.g, ring.WaveletTree)
		bench.bfs = harness.NewBFS(bench.g)
		bench.alp = harness.NewALP(bench.g)
		bench.rel = harness.NewRelational(bench.g)
		bench.byPat = map[string][]workload.Query{}
		for _, q := range bench.qs {
			p := workload.Classify(q)
			bench.byPat[p] = append(bench.byPat[p], q)
		}
		bench.timeout = 2 * time.Second
		bench.limit = 100000
	})
}

// BenchmarkTable1Workload measures query-log generation with the Table 1
// pattern mix (and exercises the classifier round trip).
func BenchmarkTable1Workload(b *testing.B) {
	setup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qs := workload.Generate(bench.g, workload.Config{Seed: int64(i), Total: 100})
		if len(workload.CountPatterns(qs)) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// runLog runs the whole query log once per iteration on one system —
// the per-query statistics of Table 2 derive from exactly this loop.
func runLog(b *testing.B, sys harness.System) {
	b.Helper()
	setup()
	edges := float64(bench.g.Len())
	b.ResetTimer()
	timeouts := 0
	for i := 0; i < b.N; i++ {
		q := bench.qs[i%len(bench.qs)]
		_, timedOut, err := sys.Run(q, bench.limit, bench.timeout)
		if err != nil {
			b.Fatal(err)
		}
		if timedOut {
			timeouts++
		}
	}
	b.ReportMetric(float64(sys.SizeBytes())/edges, "bytes/edge")
	b.ReportMetric(float64(timeouts), "timeouts")
}

// BenchmarkTable2 regenerates the query-time rows of Table 2.
func BenchmarkTable2(b *testing.B) {
	setup()
	b.Run("Ring", func(b *testing.B) { runLog(b, bench.ring) })
	b.Run("NavBFS", func(b *testing.B) { runLog(b, bench.bfs) })
	b.Run("ALP", func(b *testing.B) { runLog(b, bench.alp) })
	b.Run("Relational", func(b *testing.B) { runLog(b, bench.rel) })
}

// BenchmarkFig8 regenerates the per-pattern distributions of Fig. 8:
// one sub-benchmark per (pattern, system).
func BenchmarkFig8(b *testing.B) {
	setup()
	systems := []harness.System{bench.ring, bench.bfs, bench.alp, bench.rel}
	for _, pf := range workload.Table1 {
		qs := bench.byPat[pf.Pattern]
		if len(qs) == 0 {
			continue
		}
		b.Run(pf.Pattern, func(b *testing.B) {
			for _, sys := range systems {
				sys := sys
				b.Run(sys.Name(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := sys.Run(qs[i%len(qs)], bench.limit, bench.timeout); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkRingConstruction measures index build time and size (§5:
// "Our index is constructed in 2.3 hours" at Wikidata scale).
func BenchmarkRingConstruction(b *testing.B) {
	setup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := ring.New(bench.g, ring.WaveletMatrix)
		if i == 0 {
			b.ReportMetric(float64(r.QuerySizeBytes())/float64(bench.g.Len()), "bytes/edge")
		}
	}
}

// --- Ablations -----------------------------------------------------------

func ringEngine() (*core.Engine, *triples.Graph) {
	setup()
	return bench.ring.Engine(), bench.g
}

// BenchmarkAblationLayout compares the wavelet matrix (paper choice)
// with the pointer-shaped wavelet tree on the same workload.
func BenchmarkAblationLayout(b *testing.B) {
	setup()
	for _, sys := range []harness.System{bench.ring, bench.ringWT} {
		sys := sys
		b.Run(sys.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.Run(bench.qs[i%len(bench.qs)], bench.limit, bench.timeout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFastPaths measures the §5 join-like fast paths
// against the generic product-graph algorithm on the patterns they
// serve.
func BenchmarkAblationFastPaths(b *testing.B) {
	eng, _ := ringEngine()
	var joinish []workload.Query
	for _, q := range bench.qs {
		switch workload.Classify(q) {
		case "v / v", "v | v", "v || v", "v ^ v", "v /^ v":
			joinish = append(joinish, q)
		}
	}
	if len(joinish) == 0 {
		b.Skip("no join-like queries in the log sample")
	}
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			q := joinish[i%len(joinish)]
			_, err := eng.Eval(
				context.Background(),
				core.Query{Subject: core.Variable, Expr: q.Expr, Object: core.Variable},
				core.Options{Limit: bench.limit, Timeout: bench.timeout, DisableFastPaths: disable},
				func(uint32, uint32) bool { return true })
			if err != nil && err != core.ErrTimeout {
				b.Fatal(err)
			}
		}
	}
	b.Run("FastPaths", func(b *testing.B) { run(b, false) })
	b.Run("Generic", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTableSplit sweeps the d-bit vertical decomposition of
// the Glushkov transition tables (§3.3): space O((m/d)·2^d) vs step time
// O(m/d).
func BenchmarkAblationTableSplit(b *testing.B) {
	expr := pathexpr.MustParse("a/(b|c)*/(a|b)/c+/(a|c)*/b?")
	ids := func(s pathexpr.Sym) (uint32, bool) {
		return uint32(s.Name[0]-'a')*2 + b2u(s.Inverse), true
	}
	a := glushkov.Build(expr, ids)
	word := make([]uint32, 256)
	for i := range word {
		word[i] = uint32(i%3) * 2
	}
	for _, d := range []int{1, 2, 4, 8, 13} {
		d := d
		eng, err := glushkov.NewEngineSplit(a, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(splitName(d), func(b *testing.B) {
			b.ReportMetric(float64(eng.SizeBytes()), "table-bytes")
			for i := 0; i < b.N; i++ {
				eng.MatchRev(word)
			}
		})
	}
}

func splitName(d int) string { return "d=" + itoa(d) }

func b2u(x bool) uint32 {
	if x {
		return 1
	}
	return 0
}

// BenchmarkSelectivity measures the §6 colored-range distinct counting
// (distinct predicates into an object range in O(log n)).
func BenchmarkSelectivity(b *testing.B) {
	setup()
	r := ring.New(bench.g, ring.WaveletMatrix)
	sel := ring.NewSelectivity(r)
	nv := uint32(bench.g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := r.ObjectRange(uint32(i) % nv)
		sel.DistinctPreds(lo, hi)
	}
}
