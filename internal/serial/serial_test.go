package serial

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("test")
	w.Uint64(0xdeadbeefcafef00d)
	w.Uvarint(300)
	w.Int(42)
	w.Uint64s([]uint64{1, 2, 1 << 63})
	w.Ints([]int{0, 7, 1 << 40})
	w.String("hello, ring")
	w.String("")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("test")
	if got := r.Uint64(); got != 0xdeadbeefcafef00d {
		t.Fatalf("Uint64=%x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint=%d", got)
	}
	if got := r.Int(); got != 42 {
		t.Fatalf("Int=%d", got)
	}
	xs := r.Uint64s()
	if len(xs) != 3 || xs[2] != 1<<63 {
		t.Fatalf("Uint64s=%v", xs)
	}
	is := r.Ints()
	if len(is) != 3 || is[2] != 1<<40 {
		t.Fatalf("Ints=%v", is)
	}
	if got := r.String(); got != "hello, ring" {
		t.Fatalf("String=%q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String=%q", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("nope-and-more"))
	r.Magic("want")
	if r.Err() == nil {
		t.Fatal("bad magic not detected")
	}
	// Error latches: further reads stay failed and return zero values.
	if r.Uint64() != 0 || r.Int() != 0 || r.String() != "" || r.Uint64s() != nil {
		t.Fatal("reads after error must return zero values")
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("toolong")
	if w.Err() == nil {
		t.Fatal("bad magic length not detected")
	}
	w2 := NewWriter(&buf)
	w2.Int(-1)
	if w2.Err() == nil {
		t.Fatal("negative int not detected")
	}
}

func TestTruncatedReads(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("abcd")
	w.Uint64s([]uint64{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		r := NewReader(bytes.NewReader(data[:n]))
		r.Magic("abcd")
		r.Uint64s()
		if r.Err() == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
}

func TestHugeLengthPrefixDoesNotPreallocate(t *testing.T) {
	// A corrupt stream claiming 2^60 entries must fail on read, not OOM.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 60)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if got := r.Uint64s(); got != nil || r.Err() == nil {
		t.Fatal("huge corrupt length must error")
	}
}

// Encoding allocates nothing per word: a 1 000-word Uint64s and ten
// Ints through a buffered Writer allocate at most twice.
func TestWriterAllocsPerWord(t *testing.T) {
	w := NewWriter(io.Discard)
	words := make([]uint64, 1000)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	ints := []int{0, 1, 127, 128, 1 << 20, 1 << 40, 3, 5, 7, 9}
	allocs := testing.AllocsPerRun(20, func() {
		w.Uint64s(words)
		w.Ints(ints)
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("Uint64s of %d words and Ints of %d allocate %v times, want at most 2", len(words), len(ints), allocs)
	}
}
