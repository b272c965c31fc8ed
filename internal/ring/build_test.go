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
func refFromTriples(ts []triples.Triple, nv int, np uint32, layout Layout) *Ring {
	n := len(ts)
	r := &Ring{N: n, NumNodes: nv, NumPreds: np}
	buf := append([]triples.Triple(nil), ts...)
	seq := make([]uint32, n)
	mk := func(sigma uint32) wavelet.Seq {
		if layout == WaveletTree {
			return wavelet.NewTree(seq, sigma)
		}
		return wavelet.NewMatrix(seq, sigma)
	}
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
	r.Lo = mk(uint32(nv))

	order(func(t triples.Triple) [3]uint32 { return [3]uint32{t.P, t.O, t.S} })
	for i, t := range buf {
		seq[i] = t.S
	}
	r.Cp = partition(int(np), func(t triples.Triple) uint32 { return t.P })
	r.Ls = mk(uint32(nv))

	order(func(t triples.Triple) [3]uint32 { return [3]uint32{t.O, t.S, t.P} })
	for i, t := range buf {
		seq[i] = t.P
	}
	r.Co = partition(nv, func(t triples.Triple) uint32 { return t.O })
	r.Lp = mk(np)
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

func seqEqual(t *testing.T, what string, got, want wavelet.Seq) {
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
		for lname, layout := range layouts() {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ts := randTriples(rng, sh.n, sh.nv, sh.np, sh.skew)
				want := refFromTriples(ts, sh.nv, sh.np, layout)
				got := fromTriples(ts, sh.nv, sh.np, layout) // reorders ts
				what := sh.name + "/" + lname
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
}

// Triples must read off exactly what the per-position LF walk
// reconstructs, position by position.
func TestTriplesMatchesTripleAt(t *testing.T) {
	for _, sh := range []struct {
		n, nv int
		np    uint32
	}{{0, 4, 2}, {1, 3, 1}, {5, 1, 8}, {300, 40, 1}, {900, 120, 10}} {
		for lname, layout := range layouts() {
			rng := rand.New(rand.NewSource(int64(sh.n)))
			r := fromTriples(randTriples(rng, sh.n, sh.nv, sh.np, true), sh.nv, sh.np, layout)
			got := r.Triples()
			if len(got) != r.N {
				t.Fatalf("%s n=%d: %d triples, want %d", lname, sh.n, len(got), r.N)
			}
			for i, tr := range got {
				if want := r.TripleAt(i); tr != want {
					t.Fatalf("%s n=%d: Triples()[%d] = %v, want %v", lname, sh.n, i, tr, want)
				}
			}
		}
	}
}

func BenchmarkFromTriples(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromTriples(g.Triples, g.NumNodes(), g.NumCompletedPreds(), WaveletMatrix)
	}
}

func BenchmarkRingTriples(b *testing.B) {
	r := New(benchGraph(), WaveletMatrix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Triples()
	}
}
