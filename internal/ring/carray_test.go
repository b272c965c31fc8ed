package ring

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ringrpq/internal/bitvec"
	"ringrpq/internal/enginetest"
	"ringrpq/internal/serial"
)

// cArrayRings returns every kind of ring the C-array views must hold
// on: built, decoded from a ring section (the rdb1 payload), the
// sub-rings of a 3-shard set, and the edge shapes — no triples over an
// empty id space (where the wavelet builds σ 0 as σ 1, so its counts
// are longer than the C array) and over a non-empty one, one node, one
// predicate.
func cArrayRings(t *testing.T) map[string]*Ring {
	t.Helper()
	out := map[string]*Ring{}
	g := enginetest.RandomGraph(3, 30, 4, 120)
	r := New(g, WaveletMatrix)
	out["built"] = r

	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(serial.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	out["decoded"] = dec

	set := NewShardSet(g, 3, nil, WaveletMatrix)
	for i := range set.Shards {
		out[fmt.Sprintf("shard%d", i)] = set.Shards[i]
	}

	rng := rand.New(rand.NewSource(1))
	for name, sh := range map[string]struct {
		n, nv int
		np    uint32
	}{
		"empty-ids":  {0, 0, 0},
		"no-triples": {0, 5, 4},
		"one-node":   {4, 1, 6},
		"one-pred":   {50, 12, 1},
	} {
		out[name] = fromTriples(randTriples(rng, sh.n, sh.nv, sh.np, false), sh.nv, sh.np)
	}
	return out
}

// cRecount derives C_s, C_p and C_o afresh from the ring's triple set,
// independently of any symbol counts a sequence holds.
func cRecount(r *Ring) (cs, cp, co []int) {
	cs, cp, co = make([]int, r.NumNodes+1), make([]int, r.NumPreds+1), make([]int, r.NumNodes+1)
	for _, t := range r.triples() {
		cs[t.S+1]++
		cp[t.P+1]++
		co[t.O+1]++
	}
	for _, c := range [][]int{cs, cp, co} {
		for x := 1; x < len(c); x++ {
			c[x] += c[x-1]
		}
	}
	return cs, cp, co
}

// The C arrays are views of the sequences' symbol counts: equal to a
// recount, sharing the sequences' backing arrays, counted once by the
// size accounting, and never written by the ring's own read paths.
func TestCArraysAreSequenceCounts(t *testing.T) {
	for name, r := range cArrayRings(t) {
		cs, cp, co := cRecount(r)
		for _, c := range []struct {
			what      string
			got, want []int
			counts    []int
		}{
			{"Cs", r.Cs, cs, r.Ls.Counts()},
			{"Cp", r.Cp, cp, r.Lp.Counts()},
			{"Co", r.Co, co, r.Lo.Counts()},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s: %s = %v, recount %v", name, c.what, c.got, c.want)
			}
			if &c.got[0] != &c.counts[0] || cap(c.got) != len(c.got) {
				t.Fatalf("%s: %s is not a capped view of its sequence's counts", name, c.what)
			}
		}

		if got, want := r.SizeBytes(), footprint(r.Lo, r.Ls, r.Lp); got != want {
			t.Errorf("%s: SizeBytes %d, distinct allocations %d", name, got, want)
		}
		if got, want := r.QuerySizeBytes(), footprint(r.Ls, r.Lp, r.Lo.Counts()); got != want {
			t.Errorf("%s: QuerySizeBytes %d, distinct allocations %d", name, got, want)
		}

		before := [][]int{slices.Clone(r.Cs), slices.Clone(r.Cp), slices.Clone(r.Co)}
		ts := r.triples()
		for i, tr := range ts {
			if !r.Has(tr.S, tr.P, tr.O) || r.TripleAt(r.LFo(r.LFs(r.LFp(i)))) != r.TripleAt(i) {
				t.Fatalf("%s: triple %d does not read back", name, i)
			}
			b, e := r.ObjectRange(tr.O)
			b, e = r.BackwardByPred(b, e, tr.P)
			b, e = r.BackwardBySubj(b, e, tr.S)
			if b, e = r.BackwardByObj(b, e, tr.O); e-b != 1 {
				t.Fatalf("%s: backward search for %v ends in [%d, %d)", name, tr, b, e)
			}
		}
		FromTriples(ts, r.NumNodes, r.NumPreds)
		NewSelectivity(r)
		if after := [][]int{r.Cs, r.Cp, r.Co}; !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a C array was written: %v, was %v", name, after, before)
		}
	}
}

// footprint is what a ring's SizeBytes method should report for the
// given parts of it: the bytes of every distinct backing array
// reachable from them, each counted once at its longest view, plus the
// fixed charges the accounting makes per structure — 64 for the ring,
// 48 per wavelet sequence, 32 per bitvector.
func footprint(parts ...any) int {
	arrays := map[uintptr]int{}
	seen := map[uintptr]bool{}
	fixed := 64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == reflect.TypeOf((*bitvec.Vector)(nil)) {
				fixed += 32
			} else {
				fixed += 48 // a wavelet sequence
			}
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				return
			}
			arrays[v.Pointer()] = max(arrays[v.Pointer()], v.Len()*int(v.Type().Elem().Size()))
			if v.Type().Elem().Kind() == reflect.Pointer {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		}
	}
	for _, p := range parts {
		walk(reflect.ValueOf(p))
	}
	total := fixed
	for _, b := range arrays {
		total += b
	}
	return total
}
