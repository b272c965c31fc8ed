package wavelet

import (
	"bytes"
	"math"
	"strings"
	"testing"

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
