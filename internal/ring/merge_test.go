package ring

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ringrpq/internal/serial"
	"ringrpq/internal/triples"
)

// encoded is the ring's serialised form: equal bytes mean equal
// sequences, counts and id spaces.
func encoded(t *testing.T, r *Ring) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mergeCase is one delta over a base triple set.
type mergeCase struct {
	name       string
	base       []triples.Triple
	nv, nv2    int
	np         uint32
	adds, dels []triples.Triple
}

// drawMergeCase draws case i: a base set and a delta of the kind i
// selects. Adds are drawn absent from the base and dels from it, as the
// overlay keeps them.
func drawMergeCase(i int) mergeCase {
	rng := rand.New(rand.NewSource(int64(i)))
	nv := 1 + rng.Intn(70)
	if i%40 == 4 {
		nv = 0 // an empty node space, built as a one-symbol alphabet
	}
	np := uint32(1 + rng.Intn(9))
	mc := mergeCase{nv: nv, nv2: nv, np: np}
	if nv > 0 {
		mc.base = randTriples(rng, rng.Intn(400), nv, np, i%2 == 1)
	}
	in := map[triples.Triple]bool{}
	for _, t := range mc.base {
		in[t] = true
	}
	gone := map[triples.Triple]bool{}
	del := func(t triples.Triple) {
		if in[t] && !gone[t] {
			gone[t] = true
			mc.dels = append(mc.dels, t)
		}
	}
	added := map[triples.Triple]bool{}
	add := func(t triples.Triple) {
		if !in[t] && !added[t] && int(t.S) < mc.nv2 && int(t.O) < mc.nv2 && t.P < np {
			added[t] = true
			mc.adds = append(mc.adds, t)
		}
	}
	randAdds := func(k int) {
		for range k {
			add(triples.Triple{S: uint32(rng.Intn(mc.nv2)), P: uint32(rng.Intn(int(np))), O: uint32(rng.Intn(mc.nv2))})
		}
	}
	pick := func() triples.Triple { return mc.base[rng.Intn(len(mc.base))] }
	switch kind := i % 8; {
	case kind == 0 || len(mc.base) == 0 && kind != 4:
		mc.name = "empty delta"
		if i%16 == 8 {
			mc.name = "adds only"
			randAdds(1 + rng.Intn(40))
		}
	case kind == 1:
		mc.name = "every triple of a predicate"
		p := pick().P
		for _, t := range mc.base {
			if t.P == p {
				del(t)
			}
		}
		randAdds(rng.Intn(10))
	case kind == 2:
		mc.name = "every triple of a subject"
		s := pick().S
		for _, t := range mc.base {
			if t.S == s {
				del(t)
			}
		}
		randAdds(rng.Intn(10))
	case kind == 3:
		mc.name = "the whole ring"
		for _, t := range mc.base {
			del(t)
		}
		if i%16 == 11 {
			randAdds(1 + rng.Intn(20))
		}
	case kind == 4:
		// New node ids up to and past the next power of two (or two),
		// so L_s and L_o gain top levels.
		mc.name = "width growth"
		mc.nv2 = 1 << (bitsLen(nv) + rng.Intn(2))
		mc.nv2 += rng.Intn(3)
		for range 1 + rng.Intn(30) {
			s, o := uint32(rng.Intn(mc.nv2)), uint32(nv+rng.Intn(mc.nv2-nv))
			if rng.Intn(2) == 0 {
				s, o = o, s
			}
			add(triples.Triple{S: s, P: uint32(rng.Intn(int(np))), O: o})
		}
		if len(mc.base) > 0 {
			for range rng.Intn(10) {
				del(pick())
			}
		}
	default:
		// Adds and dels inside one (o,s) run and one (p,o) run: the
		// edits that share a run of L_p or of L_s, in both orders.
		mc.name = "shared runs"
		for range 1 + rng.Intn(15) {
			t := pick()
			del(t)
			add(triples.Triple{S: t.S, P: uint32(rng.Intn(int(np))), O: t.O})
			add(triples.Triple{S: uint32(rng.Intn(nv)), P: t.P, O: t.O})
			add(triples.Triple{S: t.S, P: t.P, O: uint32(rng.Intn(nv))})
		}
		randAdds(rng.Intn(10))
	}
	return mc
}

func bitsLen(x int) int {
	n := 0
	for ; x > 0; x >>= 1 {
		n++
	}
	return n
}

// A merged ring is the ring FromTriples builds over the edited set,
// byte for byte, and the merge leaves its input as it was.
func TestMergeMatchesFromTriples(t *testing.T) {
	kinds := map[string]int{}
	for i := range 400 {
		mc := drawMergeCase(i)
		kinds[mc.name]++
		what := fmt.Sprintf("case %d (%s: %d triples, %d nodes → %d, +%d −%d)",
			i, mc.name, len(mc.base), mc.nv, mc.nv2, len(mc.adds), len(mc.dels))
		r := FromTriples(slices.Clone(mc.base), mc.nv, mc.np)
		before := encoded(t, r)
		// The overlay hands its edits over sorted by (O, P, S); Merge
		// takes them in any order, so they go in shuffled.
		rng := rand.New(rand.NewSource(int64(i)))
		rng.Shuffle(len(mc.adds), func(a, b int) { mc.adds[a], mc.adds[b] = mc.adds[b], mc.adds[a] })
		got := r.Merge(slices.Clone(mc.adds), slices.Clone(mc.dels), mc.nv2)

		gone := map[triples.Triple]bool{}
		for _, d := range mc.dels {
			gone[d] = true
		}
		var want []triples.Triple
		for _, tr := range mc.base {
			if !gone[tr] {
				want = append(want, tr)
			}
		}
		want = append(want, mc.adds...)
		if !bytes.Equal(encoded(t, got), encoded(t, FromTriples(want, mc.nv2, mc.np))) {
			t.Fatalf("%s: merged ring differs from FromTriples", what)
		}
		if !bytes.Equal(encoded(t, r), before) {
			t.Fatalf("%s: the merge changed its input ring", what)
		}
		for _, tr := range mc.adds {
			if !got.Has(tr.S, tr.P, tr.O) {
				t.Fatalf("%s: added %v missing", what, tr)
			}
		}
		for _, tr := range mc.dels {
			if got.Has(tr.S, tr.P, tr.O) {
				t.Fatalf("%s: deleted %v present", what, tr)
			}
		}
	}
	for name, k := range kinds {
		if k < 10 {
			t.Errorf("only %d cases of kind %q", k, name)
		}
	}
	t.Logf("cases by kind: %v", kinds)
}

// An edit Merge cannot place panics instead of building a wrong ring.
func TestMergeRejects(t *testing.T) {
	ts := []triples.Triple{{S: 0, P: 0, O: 1}, {S: 1, P: 1, O: 2}}
	r := FromTriples(slices.Clone(ts), 3, 2)
	for name, tc := range map[string]struct {
		adds, dels []triples.Triple
		nv         int
	}{
		"shrunk node space":   {nil, nil, 2},
		"add past the nodes":  {[]triples.Triple{{S: 3, P: 0, O: 0}}, nil, 3},
		"add past the preds":  {[]triples.Triple{{S: 0, P: 2, O: 0}}, nil, 3},
		"add twice":           {[]triples.Triple{{S: 2, P: 0, O: 0}, {S: 2, P: 0, O: 0}}, nil, 3},
		"add and del at once": {[]triples.Triple{ts[0]}, []triples.Triple{ts[0]}, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			r.Merge(tc.adds, tc.dels, tc.nv)
		}()
	}
}
