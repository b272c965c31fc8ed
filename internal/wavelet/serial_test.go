package wavelet

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"ringrpq/internal/bitvec"
	"ringrpq/internal/serial"
)

func TestMatrixEncodeDecode(t *testing.T) {
	ns := randSeq(700, 37, 3)
	m := NewMatrix(ns.data, ns.sigma)
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	m.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeMatrix(serial.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkSeqEqual(t, m, m2, ns)
}

// treeSection writes data over [0, sigma) as the wavelet-tree section
// older files hold (see DecodeTreeSymbols), passing each node slot's
// bits (nil for no node) through edit, whose non-nil results are
// written.
func treeSection(data []uint32, sigma uint32, edit func(id int, bits []bool) []bool) []byte {
	numIDs := 2 << bits.Len32(sigma-1)
	nodes := make([][]bool, numIDs)
	var split func(id int, lo, hi uint32, seq []uint32)
	split = func(id int, lo, hi uint32, seq []uint32) {
		if hi-lo <= 1 || len(seq) == 0 {
			return
		}
		mid := (lo + hi) / 2
		var left, right []uint32
		for _, c := range seq {
			nodes[id] = append(nodes[id], c >= mid)
			if c < mid {
				left = append(left, c)
			} else {
				right = append(right, c)
			}
		}
		split(2*id, lo, mid, left)
		split(2*id+1, mid, hi, right)
	}
	split(1, 0, sigma, data)
	counts := make([]int, sigma+1)
	for _, c := range data {
		counts[c+1]++
	}
	for c := range sigma {
		counts[c+1] += counts[c]
	}
	present := 0
	for id := 1; id < numIDs; id++ {
		if nodes[id] = edit(id, nodes[id]); nodes[id] != nil {
			present++
		}
	}
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	w.Magic("wt01")
	w.Int(len(data))
	w.Uvarint(uint64(sigma))
	w.Int(numIDs)
	w.Ints(counts)
	w.Int(present)
	for id, bs := range nodes {
		if bs != nil {
			w.Int(id)
			bitvec.FromBools(bs).Encode(w)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// A tree section decodes to the symbols it was written from, and one
// whose nodes disagree with its counts, or that lacks a node, carries
// an extra one or ends early, is rejected.
func TestTreeEncodeDecode(t *testing.T) {
	keep := func(_ int, bs []bool) []bool { return bs }
	for _, sigma := range []uint32{1, 2, 5, 37} {
		ns := randSeq(700, sigma, int64(sigma))
		got, gotSigma, err := DecodeTreeSymbols(serial.NewReader(bytes.NewReader(treeSection(ns.data, sigma, keep))))
		if err != nil {
			t.Fatalf("sigma=%d: %v", sigma, err)
		}
		if gotSigma != sigma || !slices.Equal(got, ns.data) {
			t.Fatalf("sigma=%d: decoded alphabet %d and symbols differ", sigma, gotSigma)
		}
	}
	ns := randSeq(300, 9, 4)
	valid := treeSection(ns.data, 9, keep)
	for name, raw := range map[string][]byte{
		"missing node": treeSection(ns.data, 9, func(id int, bs []bool) []bool {
			if id == 3 {
				return nil
			}
			return bs
		}),
		"short node": treeSection(ns.data, 9, func(id int, bs []bool) []bool {
			if id == 2 {
				return bs[1:]
			}
			return bs
		}),
		"flipped bit": treeSection(ns.data, 9, func(id int, bs []bool) []bool {
			if id == 1 {
				bs[0] = !bs[0]
			}
			return bs
		}),
		"stray node": treeSection([]uint32{0, 0, 1}, 4, func(id int, bs []bool) []bool {
			if id == 3 { // over [2, 4), where no symbol occurs
				return []bool{false}
			}
			return bs
		}),
		"truncated": valid[:len(valid)-1],
	} {
		if _, _, err := DecodeTreeSymbols(serial.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("%s: tree section accepted", name)
		}
	}
}

func checkSeqEqual(t *testing.T, a, b *Matrix, ns naiveSeq) {
	t.Helper()
	if a.Len() != b.Len() || a.Sigma() != b.Sigma() || a.NumNodes() != b.NumNodes() {
		t.Fatal("shape differs after decode")
	}
	for i := 0; i < a.Len(); i += 7 {
		if a.Access(i) != b.Access(i) {
			t.Fatalf("Access(%d) differs", i)
		}
	}
	for c := uint32(0); c < a.Sigma(); c += 3 {
		for i := 0; i <= a.Len(); i += 97 {
			if a.Rank(c, i) != b.Rank(c, i) {
				t.Fatalf("Rank(%d,%d) differs", c, i)
			}
		}
		if a.Count(c) != b.Count(c) {
			t.Fatalf("Count(%d) differs", c)
		}
	}
	// Traversal structure (leaf ranks, full flags) must survive.
	type leafInfo struct {
		sym    uint32
		rb, re int
	}
	collect := func(s *Matrix) []leafInfo {
		var out []leafInfo
		s.Traverse(3, s.Len()-3, func(node NodeID, leaf bool, sym uint32, rb, re int, full bool) bool {
			if leaf {
				out = append(out, leafInfo{sym, rb, re})
			}
			return true
		})
		return out
	}
	la, lb := collect(a), collect(b)
	if len(la) != len(lb) {
		t.Fatalf("leaf counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("leaf %d differs: %+v vs %+v", i, la[i], lb[i])
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeMatrix(serial.NewReader(bytes.NewReader([]byte("nope")))); err == nil {
		t.Fatal("garbage accepted as matrix")
	}
	if _, _, err := DecodeTreeSymbols(serial.NewReader(bytes.NewReader([]byte("nope")))); err == nil {
		t.Fatal("garbage accepted as tree")
	}
}

// A matrix holds fewer than 2^32 positions (its leaf starts and its
// levels' rank counts are 32-bit): DecodeMatrix rejects a header
// claiming more before reading any level. The table claims lengths
// only; nothing that large is allocated.
func TestMatrixLengthLimit(t *testing.T) {
	for _, c := range []struct {
		n       int
		limited bool
	}{
		{1<<32 - 1, false}, // fits: decoding goes on and fails on the missing level
		{1 << 32, true},
		{1<<32 + 1, true},
		{math.MaxInt, true},
	} {
		var buf bytes.Buffer
		w := serial.NewWriter(&buf)
		w.Magic("wm01")
		w.Int(c.n)
		w.Uvarint(5)
		w.Int(matrixWidth(5))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeMatrix(serial.NewReader(&buf))
		if err == nil {
			t.Fatalf("n=%d: header-only matrix decoded", c.n)
		}
		if got := strings.Contains(err.Error(), "32-bit"); got != c.limited {
			t.Fatalf("n=%d: error %q, want the 32-bit limit: %v", c.n, err, c.limited)
		}
	}
}
