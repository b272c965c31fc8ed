package ring

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ringrpq/internal/triples"
	"ringrpq/internal/wavelet"
)

// refFromTriples is the comparison-sort build fromTriples replaced,
// kept as the oracle: one sort.Slice per ring order.
func refFromTriples(ts []triples.Triple, nv int, np uint32) *Ring {
	n := len(ts)
	r := &Ring{N: n, NumNodes: nv, NumPreds: np}
	buf := append([]triples.Triple(nil), ts...)
	seq := make([]uint32, n)
	order := func(key func(triples.Triple) [3]uint32) {
		sort.Slice(buf, func(i, j int) bool {
			a, b := key(buf[i]), key(buf[j])
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
	}
	partition := func(sigma int, key func(triples.Triple) uint32) []int {
		c := make([]int, sigma+1)
		for _, t := range buf {
			c[key(t)+1]++
		}
		for i := 0; i < sigma; i++ {
			c[i+1] += c[i]
		}
		return c
	}

	order(func(t triples.Triple) [3]uint32 { return [3]uint32{t.S, t.P, t.O} })
	for i, t := range buf {
		seq[i] = t.O
	}
	r.Cs = partition(nv, func(t triples.Triple) uint32 { return t.S })
	r.Lo = wavelet.NewMatrix(seq, uint32(nv))

	order(func(t triples.Triple) [3]uint32 { return [3]uint32{t.P, t.O, t.S} })
	for i, t := range buf {
		seq[i] = t.S
	}
	r.Cp = partition(int(np), func(t triples.Triple) uint32 { return t.P })
	r.Ls = wavelet.NewMatrix(seq, uint32(nv))

	order(func(t triples.Triple) [3]uint32 { return [3]uint32{t.O, t.S, t.P} })
	for i, t := range buf {
		seq[i] = t.P
	}
	r.Co = partition(nv, func(t triples.Triple) uint32 { return t.O })
	r.Lp = wavelet.NewMatrix(seq, np)
	return r
}

// randTriples draws up to n distinct id-triples in random order; skew
// concentrates the ids on a few hot values.
func randTriples(rng *rand.Rand, n, nv int, np uint32, skew bool) []triples.Triple {
	id := func(sigma int) uint32 {
		if skew && rng.Intn(4) > 0 {
			return uint32(rng.Intn(1 + sigma/8))
		}
		return uint32(rng.Intn(sigma))
	}
	seen := map[triples.Triple]bool{}
	var ts []triples.Triple
	for tries := 0; len(ts) < n && tries < 20*n; tries++ {
		t := triples.Triple{S: id(nv), P: id(int(np)), O: id(nv)}
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	return ts
}

func seqEqual(t *testing.T, what string, got, want *wavelet.Matrix) {
	t.Helper()
	if got.Len() != want.Len() || got.Sigma() != want.Sigma() {
		t.Fatalf("%s: len/sigma %d/%d, want %d/%d", what, got.Len(), got.Sigma(), want.Len(), want.Sigma())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Access(i), want.Access(i); g != w {
			t.Fatalf("%s[%d] = %d, want %d", what, i, g, w)
		}
	}
}

// fromTriples must build, from any input order, exactly the ring the
// three comparison sorts built.
func TestFromTriplesMatchesComparisonSort(t *testing.T) {
	type shape struct {
		name  string
		n, nv int
		np    uint32
		skew  bool
	}
	shapes := []shape{
		{"empty", 0, 5, 4, false},
		{"single", 1, 7, 2, false},
		{"one-node", 3, 1, 6, false},
		{"one-pred", 60, 12, 1, false},
		{"uniform", 700, 90, 14, false},
		{"skewed", 700, 300, 20, true},
		{"dense", 400, 8, 8, false},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ts := randTriples(rng, sh.n, sh.nv, sh.np, sh.skew)
			want := refFromTriples(ts, sh.nv, sh.np)
			got := fromTriples(ts, sh.nv, sh.np) // reorders ts
			what := sh.name
			if got.N != want.N {
				t.Fatalf("%s: N = %d, want %d", what, got.N, want.N)
			}
			seqEqual(t, what+" Lo", got.Lo, want.Lo)
			seqEqual(t, what+" Ls", got.Ls, want.Ls)
			seqEqual(t, what+" Lp", got.Lp, want.Lp)
			if !reflect.DeepEqual(got.Cs, want.Cs) || !reflect.DeepEqual(got.Cp, want.Cp) || !reflect.DeepEqual(got.Co, want.Co) {
				t.Fatalf("%s: C arrays differ", what)
			}
			if got.SizeBytes() != want.SizeBytes() || got.QuerySizeBytes() != want.QuerySizeBytes() {
				t.Fatalf("%s: sizes %d/%d, want %d/%d", what,
					got.SizeBytes(), got.QuerySizeBytes(), want.SizeBytes(), want.QuerySizeBytes())
			}
		}
	}
}

func BenchmarkFromTriples(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromTriples(g.Triples, g.NumNodes(), g.NumCompletedPreds())
	}
}

// BenchmarkRingMerge folds 1000 edits into the benchmark graph's
// ring: 250 of its triples deleted and 750 absent ones added, some on
// nodes the ring has not seen, the shape of one compaction.
func BenchmarkRingMerge(b *testing.B) {
	g := benchGraph()
	r := New(g, WaveletMatrix)
	rng := rand.New(rand.NewSource(1))
	in := map[triples.Triple]bool{}
	for _, t := range g.Triples {
		in[t] = true
	}
	var adds, dels []triples.Triple
	for _, i := range rng.Perm(len(g.Triples))[:250] {
		dels = append(dels, g.Triples[i])
	}
	nv := r.NumNodes + 100
	for len(adds) < 750 {
		t := triples.Triple{S: uint32(rng.Intn(nv)), P: uint32(rng.Intn(int(r.NumPreds))), O: uint32(rng.Intn(r.NumNodes))}
		if !in[t] {
			in[t] = true
			adds = append(adds, t)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.Merge(adds, dels, nv)
	}
}
