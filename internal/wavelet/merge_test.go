package wavelet

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ringrpq/internal/serial"
)

// encoded is the matrix's serialised form: equal bytes mean equal
// levels, counts and shape.
func encoded(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	m.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randEdits draws k edits over data (deletes of distinct positions,
// inserts of symbols below sigma anywhere), sorted as Merge wants
// them, and returns them with the edited sequence.
func randEdits(rng *rand.Rand, data []uint32, k int, sigma uint32) ([]Edit, []uint32) {
	var edits []Edit
	deleted := map[int]bool{}
	for range k {
		if len(data) > 0 && rng.Intn(2) == 0 {
			p := rng.Intn(len(data))
			if !deleted[p] {
				deleted[p] = true
				edits = append(edits, Edit{Pos: p, Sym: data[p], Del: true})
			}
			continue
		}
		edits = append(edits, Edit{Pos: rng.Intn(len(data) + 1), Sym: uint32(rng.Intn(int(sigma)))})
	}
	// By position, inserts before the delete at the same position; the
	// inserts at one position keep their drawn order.
	slices.SortStableFunc(edits, func(a, b Edit) int {
		if a.Pos != b.Pos {
			return a.Pos - b.Pos
		}
		if a.Del != b.Del {
			if a.Del {
				return 1
			}
			return -1
		}
		return 0
	})
	var out []uint32
	i := 0
	for p := 0; p <= len(data); p++ {
		keep := p < len(data)
		for ; i < len(edits) && edits[i].Pos == p; i++ {
			if edits[i].Del {
				keep = false
			} else {
				out = append(out, edits[i].Sym)
			}
		}
		if keep {
			out = append(out, data[p])
		}
	}
	return edits, out
}

// A merged matrix is the one NewMatrix builds over the edited
// sequence, byte for byte: over empty, one-word and multi-word
// sequences, with no edits, with every position deleted, and with
// alphabets that grow by one level or several.
func TestMergeMatchesNewMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 400 {
		n := []int{0, 1, 63, 64, 65, 200, 1000}[trial%7]
		sigma := uint32(1 + rng.Intn(40))
		newSigma := sigma
		switch trial % 5 {
		case 1:
			newSigma = sigma + uint32(rng.Intn(3))
		case 2:
			newSigma = sigma*2 + 1
		case 3:
			newSigma = sigma*16 + uint32(rng.Intn(50))
		}
		data := randSeq(n, sigma, int64(trial)).data
		k := rng.Intn(3 * (n + 2))
		var edits []Edit
		want := data
		switch trial % 11 {
		case 0: // no edits
		case 1: // delete everything
			want = nil
			for p, c := range data {
				edits = append(edits, Edit{Pos: p, Sym: c, Del: true})
			}
		default:
			edits, want = randEdits(rng, data, k, newSigma)
		}
		m := NewMatrix(data, sigma)
		got := m.Merge(edits, newSigma)
		if !bytes.Equal(encoded(t, got), encoded(t, NewMatrix(want, newSigma))) {
			t.Fatalf("trial %d (n %d, σ %d → %d, %d edits): merged matrix differs from a fresh build",
				trial, n, sigma, newSigma, len(edits))
		}
		ns := naiveSeq{want, newSigma}
		for c := uint32(0); c < newSigma; c++ {
			if got.Rank(c, len(want)) != ns.rank(c, len(want)) {
				t.Fatalf("trial %d: Rank(%d, n) = %d after the merge, want %d", trial, c, got.Rank(c, len(want)), ns.rank(c, len(want)))
			}
		}
		if len(encoded(t, m)) == 0 || !bytes.Equal(encoded(t, m), encoded(t, NewMatrix(data, sigma))) {
			t.Fatalf("trial %d: the merge changed its input", trial)
		}
	}
}

// Edits Merge cannot apply panic instead of building a wrong matrix.
func TestMergeRejects(t *testing.T) {
	m := NewMatrix([]uint32{0, 1, 2, 1}, 3)
	for name, tc := range map[string]struct {
		edits []Edit
		sigma uint32
	}{
		"shrunk alphabet":      {nil, 2},
		"out of order":         {[]Edit{{Pos: 2}, {Pos: 1}}, 3},
		"insert after delete":  {[]Edit{{Pos: 1, Sym: 1, Del: true}, {Pos: 1}}, 3},
		"delete past the end":  {[]Edit{{Pos: 4, Sym: 1, Del: true}}, 3},
		"insert past the end":  {[]Edit{{Pos: 5}}, 3},
		"symbol past σ":        {[]Edit{{Pos: 0, Sym: 3}}, 3},
		"delete of a mismatch": {[]Edit{{Pos: 0, Sym: 2, Del: true}}, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			m.Merge(tc.edits, tc.sigma)
		}()
	}
}

// BenchmarkMatrixMerge merges 1000 edits into a 150 k-symbol matrix,
// the size of one g100k ring sequence and of a compaction's delta.
func BenchmarkMatrixMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ns := randSeq(150_000, 20_000, 1)
	m := NewMatrix(ns.data, ns.sigma)
	edits, _ := randEdits(rng, ns.data, 1000, ns.sigma)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m.Merge(edits, ns.sigma)
	}
}
