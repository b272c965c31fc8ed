package ring

import "ringrpq/internal/triples"

// Partitioner is the type of NewShardSet's ignored partitioner argument.
type Partitioner interface {
	Shard(pred uint32, k int) int
}

// ShardSet holds one ring over the whole graph. It stays only because
// the benchmark module under bench/ still builds one for its sharded
// ablation probe, and it goes with that call (ROADMAP item 17).
type ShardSet struct {
	Ring *Ring
}

// NewShardSet builds the ring over the completed triples of g. The
// shard count, the partitioner and the layout are ignored.
func NewShardSet(g *triples.Graph, _ int, _ Partitioner, layout Layout) *ShardSet {
	return &ShardSet{Ring: New(g, layout)}
}
