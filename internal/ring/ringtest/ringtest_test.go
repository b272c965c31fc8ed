package ringtest

import (
	"math/rand"
	"testing"

	"ringrpq/internal/ring"
	"ringrpq/internal/triples"
)

// tripleAt reconstructs the triple at position i of L_p by following
// the LF cycle, one wavelet walk per component (§3.4's worked example).
func tripleAt(r *ring.Ring, i int) triples.Triple {
	p := r.Lp.Access(i)
	j := r.LFp(i)
	s := r.Ls.Access(j)
	o := r.Lo.Access(r.LFs(j))
	return triples.Triple{S: s, P: p, O: o}
}

// Triples must read off exactly what the per-position LF walk
// reconstructs, position by position.
func TestTriplesMatchesTripleAt(t *testing.T) {
	for _, sh := range []struct {
		n, nv int
		np    uint32
	}{{0, 4, 2}, {1, 3, 1}, {5, 1, 8}, {300, 40, 1}, {900, 120, 10}} {
		rng := rand.New(rand.NewSource(int64(sh.n)))
		seen := map[triples.Triple]bool{}
		var ts []triples.Triple
		for tries := 0; len(ts) < sh.n && tries < 20*sh.n; tries++ {
			tr := triples.Triple{S: uint32(rng.Intn(sh.nv)), P: uint32(rng.Intn(int(sh.np))), O: uint32(rng.Intn(sh.nv))}
			if !seen[tr] {
				seen[tr] = true
				ts = append(ts, tr)
			}
		}
		r := ring.FromTriples(ts, sh.nv, sh.np)
		got := Triples(r)
		if len(got) != r.N {
			t.Fatalf("n=%d: %d triples, want %d", sh.n, len(got), r.N)
		}
		for i, tr := range got {
			if want := tripleAt(r, i); tr != want {
				t.Fatalf("n=%d: Triples()[%d] = %v, want %v", sh.n, i, tr, want)
			}
			if !seen[tr] {
				t.Fatalf("n=%d: Triples()[%d] = %v, not an input triple", sh.n, i, tr)
			}
		}
	}
}
