package ring

import (
	"bytes"
	"testing"

	"ringrpq/internal/serial"
)

func TestRingEncodeDecode(t *testing.T) {
	g := fig1Graph()
	r := New(g, WaveletMatrix)
	var buf bytes.Buffer
	w := serial.NewWriter(&buf)
	r.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r2, err := Decode(serial.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if r2.N != r.N || r2.NumNodes != r.NumNodes || r2.NumPreds != r.NumPreds {
		t.Fatalf("header differs")
	}
	// C arrays must be rebuilt identically.
	for i := range r.Cs {
		if r.Cs[i] != r2.Cs[i] {
			t.Fatalf("Cs[%d] differs", i)
		}
	}
	for i := range r.Co {
		if r.Co[i] != r2.Co[i] {
			t.Fatalf("Co[%d] differs", i)
		}
	}
	for i := range r.Cp {
		if r.Cp[i] != r2.Cp[i] {
			t.Fatalf("Cp[%d] differs", i)
		}
	}
	// Triple reconstruction must agree everywhere.
	for i := 0; i < r.N; i++ {
		if r.TripleAt(i) != r2.TripleAt(i) {
			t.Fatalf("TripleAt(%d) differs", i)
		}
	}
}

func TestRingDecodeGarbage(t *testing.T) {
	if _, err := Decode(serial.NewReader(bytes.NewReader([]byte("....")))); err == nil {
		t.Fatal("garbage accepted as ring")
	}
}
