package core

import (
	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
)

// ShardedEngine is an Engine over the one ring of a ring.ShardSet. It
// stays only because the benchmark module under bench/ still builds one
// for its sharded ablation probe, and it goes with that call (ROADMAP
// item 17).
type ShardedEngine struct{ *Engine }

// NewShardedEngine builds an Engine over set's ring; ids resolves
// predicate occurrences exactly as for NewEngine.
func NewShardedEngine(set *ring.ShardSet, ids glushkov.SymbolIDs) *ShardedEngine {
	return &ShardedEngine{NewEngine(set.Ring, ids)}
}
