package ring

import (
	"fmt"
	"sync"

	"ringrpq/internal/serial"
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

// MaxShards bounds the shard count accepted by builders and decoders;
// it exists to keep corrupted or hostile serialised inputs from forcing
// huge allocations.
const MaxShards = 4096

// Partitioner assigns base predicates to shards. Implementations must
// be deterministic pure functions of (pred, k): the assignment is not
// stored per-triple in the serialised container, only the partitioner's
// Name, and the decoder re-derives and verifies placement from it.
type Partitioner interface {
	// Shard maps base predicate id pred (0 ≤ pred < |P|) to a shard
	// index in [0, k).
	Shard(pred uint32, k int) int
	// Name identifies the partitioner in the serialised container; it
	// must be registered in PartitionerByName for files to load back.
	Name() string
}

// HashPartitioner is the default Partitioner: Fibonacci hashing of the
// base predicate id. It spreads predicates evenly regardless of id
// clustering and is stable across runs and platforms (a requirement of
// the on-disk format).
type HashPartitioner struct{}

// Shard implements Partitioner.
func (HashPartitioner) Shard(pred uint32, k int) int {
	return int((pred * 2654435761) % uint32(k))
}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

// PartitionerByName resolves a serialised partitioner name.
func PartitionerByName(name string) (Partitioner, bool) {
	switch name {
	case "hash":
		return HashPartitioner{}, true
	default:
		return nil, false
	}
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

// PredCount reports the number of triples with completed predicate p
// (they all live in one shard).
func (s *ShardSet) PredCount(p uint32) int {
	r := s.Shards[s.shardOf(p)]
	return r.Cp[p+1] - r.Cp[p]
}

// SizeBytes sums the sub-ring footprints.
func (s *ShardSet) SizeBytes() int {
	sz := 64
	for _, r := range s.Shards {
		sz += r.SizeBytes()
	}
	return sz
}

// QuerySizeBytes sums the query-relevant sub-ring footprints (the
// analogue of Ring.QuerySizeBytes).
func (s *ShardSet) QuerySizeBytes() int {
	sz := 64
	for _, r := range s.Shards {
		sz += r.QuerySizeBytes()
	}
	return sz
}

// Encode writes the shard container (the payload of the public rdbs1
// format): header, partitioner name, then each sub-ring.
func (s *ShardSet) Encode(w *serial.Writer) {
	w.Magic("rss1")
	w.Int(s.K)
	w.String(s.Part.Name())
	w.Int(s.N)
	w.Int(s.NumNodes)
	w.Uvarint(uint64(s.NumPreds))
	for _, r := range s.Shards {
		r.Encode(w)
	}
}

// DecodeShardSet reads a shard container written by Encode, verifying
// the invariants the sharded engine relies on: a sane shard count, a
// known partitioner, globally-consistent id spaces, triple counts that
// add up, and every predicate stored in the shard the partitioner
// assigns it to.
func DecodeShardSet(rd *serial.Reader) (*ShardSet, error) {
	rd.Magic("rss1")
	s := &ShardSet{}
	s.K = rd.Int()
	name := rd.String()
	s.N = rd.Int()
	s.NumNodes = rd.Int()
	s.NumPreds = uint32(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if s.K < 1 || s.K > MaxShards {
		return nil, fmt.Errorf("ring: corrupt shard count %d", s.K)
	}
	part, ok := PartitionerByName(name)
	if !ok {
		return nil, fmt.Errorf("ring: unknown partitioner %q", name)
	}
	s.Part = part
	if s.NumPreds%2 != 0 {
		return nil, fmt.Errorf("ring: corrupt completed predicate count %d", s.NumPreds)
	}
	s.Shards = make([]*Ring, 0, min(s.K, 64))
	total := 0
	for i := 0; i < s.K; i++ {
		r, err := Decode(rd)
		if err != nil {
			return nil, fmt.Errorf("ring: shard %d: %w", i, err)
		}
		if r.NumNodes != s.NumNodes || r.NumPreds != s.NumPreds {
			return nil, fmt.Errorf("ring: shard %d id spaces (%d nodes, %d preds) disagree with container (%d nodes, %d preds)",
				i, r.NumNodes, r.NumPreds, s.NumNodes, s.NumPreds)
		}
		total += r.N
		s.Shards = append(s.Shards, r)
	}
	if total != s.N {
		return nil, fmt.Errorf("ring: shard triple counts sum to %d, container says %d", total, s.N)
	}
	for i, r := range s.Shards {
		for p := uint32(0); p < s.NumPreds; p++ {
			if r.Cp[p+1] > r.Cp[p] && s.shardOf(p) != i {
				return nil, fmt.Errorf("ring: predicate %d found in shard %d, partitioner %q assigns it to shard %d",
					p, i, name, s.shardOf(p))
			}
		}
	}
	return s, nil
}
