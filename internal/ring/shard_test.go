package ring

import (
	"bytes"
	"strings"
	"testing"

	"ringrpq/internal/enginetest"
	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

func shardRoundTrip(t *testing.T, set *ShardSet) *ShardSet {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	set.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeShardSet(serial.NewReader(&buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestShardSetRoundTrip(t *testing.T) {
	g := enginetest.RandomGraph(1, 15, 4, 60)
	set := NewShardSet(g, 3, nil, WaveletMatrix)
	got := shardRoundTrip(t, set)
	if got.K != set.K || got.N != set.N || got.NumNodes != set.NumNodes || got.NumPreds != set.NumPreds {
		t.Fatalf("header (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			got.K, got.N, got.NumNodes, got.NumPreds, set.K, set.N, set.NumNodes, set.NumPreds)
	}
	for i := range set.Shards {
		a, b := set.Shards[i], got.Shards[i]
		if a.N != b.N {
			t.Fatalf("shard %d has %d triples, want %d", i, b.N, a.N)
		}
		for pos := 0; pos < a.N; pos++ {
			if a.TripleAt(pos) != b.TripleAt(pos) {
				t.Fatalf("shard %d triple %d differs", i, pos)
			}
		}
	}
}

func TestShardSetRoundTripEmptyShards(t *testing.T) {
	// 1 base predicate across 5 shards: 4 shards are empty.
	g := enginetest.RandomGraph(2, 8, 1, 20)
	set := NewShardSet(g, 5, nil, WaveletMatrix)
	empty := 0
	for _, shard := range set.Shards {
		if shard.N == 0 {
			empty++
		}
	}
	if empty != 4 {
		t.Fatalf("%d empty shards, want 4", empty)
	}
	got := shardRoundTrip(t, set)
	for i, shard := range got.Shards {
		if shard.N != set.Shards[i].N {
			t.Fatalf("shard %d: %d triples, want %d", i, shard.N, set.Shards[i].N)
		}
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

// corrupt re-encodes a valid shard set, applies edit to the buffered
// bytes, and expects DecodeShardSet to fail cleanly.
func expectDecodeError(t *testing.T, name string, raw []byte, wantSub string) {
	t.Helper()
	_, err := DecodeShardSet(serial.NewReader(bytes.NewReader(raw)))
	if err == nil {
		t.Fatalf("%s: decode succeeded, want error containing %q", name, wantSub)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

func encodeSet(t *testing.T, set *ShardSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	set.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// wrongHomePartitioner claims the hash partitioner's name but assigns
// differently, so its encoding is internally inconsistent.
type wrongHomePartitioner struct{}

func (wrongHomePartitioner) Shard(p uint32, k int) int { return int(p+1) % k }
func (wrongHomePartitioner) Name() string              { return "hash" }

func TestDecodeShardSetRejectsCorruption(t *testing.T) {
	g := enginetest.RandomGraph(4, 10, 4, 40)
	set := NewShardSet(g, 3, nil, WaveletMatrix)
	valid := encodeSet(t, set)

	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(valid); i += 7 {
		if _, err := DecodeShardSet(serial.NewReader(bytes.NewReader(valid[:i]))); err == nil {
			t.Fatalf("truncated to %d bytes: decode succeeded", i)
		}
	}

	// Bad shard count: patch K (the uvarint right after the magic).
	bad := append([]byte(nil), valid...)
	bad[4] = 0
	expectDecodeError(t, "zero shards", bad, "shard count")

	// Unknown partitioner name.
	other := NewShardSet(g, 3, wrongNamePartitioner{}, WaveletMatrix)
	expectDecodeError(t, "unknown partitioner", encodeSet(t, other), "partitioner")

	// Predicates placed where the named partitioner would not put them.
	misplaced := NewShardSet(g, 3, wrongHomePartitioner{}, WaveletMatrix)
	expectDecodeError(t, "misplaced predicates", encodeSet(t, misplaced), "assigns it to shard")

	// Shard built over a different id space.
	small := enginetest.RandomGraph(4, 5, 4, 20)
	mixed := NewShardSet(g, 2, nil, WaveletMatrix)
	mixed.Shards[1] = New(small, WaveletMatrix)
	expectDecodeError(t, "mixed id spaces", encodeSet(t, mixed), "id spaces")
}

type wrongNamePartitioner struct{}

func (wrongNamePartitioner) Shard(p uint32, k int) int { return HashPartitioner{}.Shard(p, k) }
func (wrongNamePartitioner) Name() string              { return "no-such-partitioner" }

func TestPartitionerByName(t *testing.T) {
	p, ok := PartitionerByName("hash")
	if !ok {
		t.Fatal("hash partitioner not registered")
	}
	if p.Name() != "hash" {
		t.Fatalf("registered name %q", p.Name())
	}
	if _, ok := PartitionerByName("bogus"); ok {
		t.Fatal("bogus partitioner resolved")
	}
	// Determinism and range of the default partitioner.
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
