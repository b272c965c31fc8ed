package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"ringrpq/internal/datagen"
)

// The benchmark's op logs are drawn from Graph.Triples by index, so a
// builder that orders or deduplicates differently changes every log —
// and with it every before/after comparison. This pins the generators'
// output over the benchmark's g100k graph (bench/load: dataset seed 1,
// 20 000 nodes, 100 000 edges, 60 predicates) to the hash the
// comparison-sort, map-deduplicating triples.Builder produced.
func TestGeneratorsGoldenOverBenchmarkGraph(t *testing.T) {
	g := datagen.Generate(datagen.Config{Seed: 1, Nodes: 20000, Edges: 100000, Preds: 60})
	h := sha256.New()
	for _, t := range g.Triples {
		h.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, t.S), t.P), t.O))
	}
	for _, q := range Generate(g, Config{Seed: 1, Total: 1250}) {
		fmt.Fprintln(h, q.Pattern, q)
	}
	for _, p := range GeneratePatterns(g, PatternConfig{Seed: 1, Total: 600}) {
		fmt.Fprintln(h, p.Class, p.HasRPQ, p.Text)
	}
	for _, op := range GenerateMixed(g, MixedConfig{Seed: 1, Total: 2000, WriteRatio: 0.1, BatchSize: 16, DeleteFrac: 0.2, FreshNodeFrac: 0.1}) {
		if op.IsUpdate() {
			fmt.Fprintln(h, "update", op.Adds, op.Dels)
		} else {
			fmt.Fprintln(h, "read", op.Query.Pattern, *op.Query)
		}
	}
	const golden = "8dae773dcf90aa511f09e6ba13e28e3984dfc37d828f6cbbdace25988facea1b"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("generator output hash %s, want %s: Graph.Triples or a generator changed", got, golden)
	}
}
