package ring

import (
	"testing"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/triples"
)

// TestNewShardSetEmptyShards: with one base predicate across five
// shards, four shards are empty rings over the global id spaces and
// the fifth holds every triple.
func TestNewShardSetEmptyShards(t *testing.T) {
	g := enginetest.RandomGraph(2, 8, 1, 20)
	set := NewShardSet(g, 5, nil, WaveletMatrix)
	empty := 0
	for i, shard := range set.Shards {
		if shard.NumNodes != set.NumNodes || shard.NumPreds != set.NumPreds {
			t.Fatalf("shard %d id spaces (%d, %d), want (%d, %d)", i, shard.NumNodes, shard.NumPreds, set.NumNodes, set.NumPreds)
		}
		switch shard.N {
		case 0:
			empty++
		case set.N:
		default:
			t.Fatalf("shard %d holds %d of %d triples", i, shard.N, set.N)
		}
	}
	if empty != 4 {
		t.Fatalf("%d empty shards, want 4", empty)
	}
}

func TestNewShardSetClamps(t *testing.T) {
	g := enginetest.RandomGraph(3, 6, 2, 12)
	if set := NewShardSet(g, 0, nil, WaveletMatrix); set.K != 1 {
		t.Fatalf("K=0 clamped to %d, want 1", set.K)
	}
	if set := NewShardSet(g, -4, nil, WaveletMatrix); set.K != 1 {
		t.Fatalf("K=-4 clamped to %d, want 1", set.K)
	}
	if set := NewShardSet(g, MaxShards+10, nil, WaveletMatrix); set.K != MaxShards {
		t.Fatalf("huge K clamped to %d, want %d", set.K, MaxShards)
	}
}

// TestHashPartitionerShard: the default partitioner is deterministic
// and maps every predicate into [0, k).
func TestHashPartitionerShard(t *testing.T) {
	var p HashPartitioner
	for k := 1; k <= 9; k++ {
		for pred := uint32(0); pred < 100; pred++ {
			s := p.Shard(pred, k)
			if s < 0 || s >= k {
				t.Fatalf("Shard(%d, %d) = %d out of range", pred, k, s)
			}
			if s != p.Shard(pred, k) {
				t.Fatalf("Shard(%d, %d) not deterministic", pred, k)
			}
		}
	}
}

// TestShardedTriplePartition checks that NewShardSet puts every triple
// in exactly the shard its base predicate maps to, with nothing lost.
func TestShardedTriplePartition(t *testing.T) {
	g := enginetest.RandomGraph(5, 12, 5, 50)
	set := NewShardSet(g, 4, nil, WaveletMatrix)
	seen := map[triples.Triple]bool{}
	for i, shard := range set.Shards {
		for pos := 0; pos < shard.N; pos++ {
			tr := shard.TripleAt(pos)
			if set.ShardFor(tr.P) != i {
				t.Fatalf("triple %v in shard %d, want %d", tr, i, set.ShardFor(tr.P))
			}
			if seen[tr] {
				t.Fatalf("triple %v duplicated across shards", tr)
			}
			seen[tr] = true
		}
	}
	if len(seen) != g.Len() {
		t.Fatalf("shards hold %d distinct triples, want %d", len(seen), g.Len())
	}
}
