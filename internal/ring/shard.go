package ring

import (
	"sync"

	"ringrpq/internal/triples"
)

// This file implements the sharded ring: the completed triple set is
// partitioned by predicate into K independent sub-rings that are built
// in parallel (an evaluation walks them on its caller's goroutine).
//
// The partition key is the *base* predicate: a predicate p and its
// inverse p̂ = p ± |P| always land in the same shard, because the graph
// completion materialises them as two views of the same data edge and a
// 2RPQ may read either. Every sub-ring is built over the *global* node
// and predicate id spaces (its C arrays simply have empty ranges for
// ids it does not hold), so positions, symbols and automaton masks mean
// the same thing in every shard and a traversal can hop between shards
// without translation.
//
// Correctness note: a path matching an RPQ may use edges from several
// shards, so evaluating the full query independently per shard and
// unioning the results would be wrong. The sharded engine
// (internal/core) instead routes single-shard expressions wholesale and
// runs the multi-ring union traversal otherwise; the ShardSet only
// guarantees the data-level invariants above.

// MaxShards bounds the shard count accepted by builders.
const MaxShards = 4096

// Partitioner assigns base predicates to shards. Implementations must
// be deterministic pure functions of (pred, k).
type Partitioner interface {
	// Shard maps base predicate id pred (0 ≤ pred < |P|) to a shard
	// index in [0, k).
	Shard(pred uint32, k int) int
}

// HashPartitioner is the default Partitioner: Fibonacci hashing of the
// base predicate id. It spreads predicates evenly regardless of id
// clustering and is stable across runs and platforms.
type HashPartitioner struct{}

// Shard implements Partitioner.
func (HashPartitioner) Shard(pred uint32, k int) int {
	return int((pred * 2654435761) % uint32(k))
}

// ShardSet is a database partitioned into K sub-rings. All sub-rings
// share the global node and (completed) predicate id spaces.
type ShardSet struct {
	// K is the shard count (≥ 1).
	K int
	// Shards holds the sub-rings; Shards[i] contains exactly the
	// completed triples whose base predicate maps to shard i.
	Shards []*Ring
	// Part is the partitioner that produced (and reproduces) the
	// assignment.
	Part Partitioner

	// N is the total completed triple count; NumNodes and NumPreds are
	// the global |V| and |Σ↔| every shard was built with.
	N        int
	NumNodes int
	NumPreds uint32
}

// NewShardSet partitions the completed triples of g into k sub-rings
// and builds them in parallel. k is clamped to [1, MaxShards]; a nil
// part defaults to HashPartitioner. The layout is ignored (see Layout).
func NewShardSet(g *triples.Graph, k int, part Partitioner, _ Layout) *ShardSet {
	if k < 1 {
		k = 1
	}
	if k > MaxShards {
		k = MaxShards
	}
	if part == nil {
		part = HashPartitioner{}
	}
	nv := g.NumNodes()
	np := g.NumCompletedPreds()
	s := &ShardSet{K: k, Part: part, N: g.Len(), NumNodes: nv, NumPreds: np}

	buckets := make([][]triples.Triple, k)
	for _, t := range g.Triples {
		i := s.shardOf(t.P)
		buckets[i] = append(buckets[i], t)
	}

	s.Shards = make([]*Ring, k)
	var wg sync.WaitGroup
	for i := range s.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Shards[i] = fromTriples(buckets[i], nv, np)
		}(i)
	}
	wg.Wait()
	return s
}

// shardOf maps a completed predicate id to its shard via the base
// predicate.
func (s *ShardSet) shardOf(p uint32) int {
	half := s.NumPreds / 2
	if p >= half {
		p -= half
	}
	return s.Part.Shard(p, s.K)
}

// ShardFor returns the shard holding every triple whose (completed)
// predicate is p.
func (s *ShardSet) ShardFor(p uint32) int { return s.shardOf(p) }
