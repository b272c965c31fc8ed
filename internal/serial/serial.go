// Package serial provides the small binary-encoding helpers shared by
// the index serialisation code: little-endian fixed ints, uvarints, and
// checked magic headers. Formats favour simplicity: derived structures
// (rank/select directories, C arrays) are rebuilt on load rather than
// stored.
package serial

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Writer wraps a buffered writer with error-latching write helpers.
type Writer struct {
	w   *bufio.Writer
	err error
	// buf encodes one word: a stack array handed to the bufio.Writer
	// would escape, one heap allocation per word.
	buf [binary.MaxVarintLen64]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Flush flushes buffered data and returns the first error encountered.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Err returns the latched error.
func (w *Writer) Err() error { return w.err }

// Magic writes a 4-byte section tag.
func (w *Writer) Magic(tag string) {
	if w.err != nil {
		return
	}
	if len(tag) != 4 {
		w.err = fmt.Errorf("serial: magic %q is not 4 bytes", tag)
		return
	}
	_, w.err = w.w.WriteString(tag)
}

// Uint64 writes a fixed 8-byte little-endian value.
func (w *Writer) Uint64(x uint64) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:8], x)
	_, w.err = w.w.Write(w.buf[:8])
}

// Uvarint writes a variable-length unsigned value.
func (w *Writer) Uvarint(x uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], x)
	_, w.err = w.w.Write(w.buf[:n])
}

// Int writes a non-negative int as a uvarint.
func (w *Writer) Int(x int) {
	if x < 0 {
		if w.err == nil {
			w.err = fmt.Errorf("serial: negative int %d", x)
		}
		return
	}
	w.Uvarint(uint64(x))
}

// Uint64s writes a length-prefixed word slice.
func (w *Writer) Uint64s(xs []uint64) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Uint64(x)
	}
}

// Ints writes a length-prefixed int slice as uvarints.
func (w *Writer) Ints(xs []int) {
	w.Int(len(xs))
	for _, x := range xs {
		w.Int(x)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// maxPrealloc caps slice preallocation from untrusted length prefixes:
// decoders may only reserve this much up front and must otherwise grow
// with the bytes actually read, so a corrupt length cannot force an
// allocation larger than the input itself.
const maxPrealloc = 1 << 20

// Reader wraps a buffered reader with error-latching read helpers.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Fail latches err (first failure wins), so decoders that detect
// inconsistencies beyond raw read errors poison the reader the same
// way.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Magic reads and checks a 4-byte section tag.
func (r *Reader) Magic(tag string) {
	if got := r.Tag(); r.err == nil && got != tag {
		r.err = fmt.Errorf("serial: bad magic %q, want %q", got, tag)
	}
}

// Tag reads a 4-byte section tag and returns it, for callers that
// dispatch on the tag instead of expecting a fixed one.
func (r *Reader) Tag() string {
	if r.err != nil {
		return ""
	}
	var buf [4]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.err = err
		return ""
	}
	return string(buf[:])
}

// Uint64 reads a fixed 8-byte value.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Uvarint reads a variable-length unsigned value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return x
}

// Int reads a non-negative int, rejecting values that overflow int
// (a corrupt length prefix must surface as an error, not as a negative
// length that panics a make() downstream).
func (r *Reader) Int() int {
	x := r.Uvarint()
	if x > math.MaxInt {
		if r.err == nil {
			r.err = fmt.Errorf("serial: int overflow %d", x)
		}
		return 0
	}
	return int(x)
}

// Uint64s reads a length-prefixed word slice.
func (r *Reader) Uint64s() []uint64 {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	cap := n
	if cap > maxPrealloc {
		cap = maxPrealloc
	}
	out := make([]uint64, 0, cap)
	for i := 0; i < n; i++ {
		out = append(out, r.Uint64())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (r *Reader) Ints() []int {
	n := r.Int()
	if r.err != nil || n == 0 {
		return nil
	}
	cap := n
	if cap > maxPrealloc {
		cap = maxPrealloc
	}
	out := make([]int, 0, cap)
	for i := 0; i < n; i++ {
		out = append(out, r.Int())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// String reads a length-prefixed string. The claimed length is not
// trusted for allocation: data is read in bounded chunks, so a corrupt
// or hostile prefix can only make the reader consume (and hold) as many
// bytes as the input actually contains before erroring out.
func (r *Reader) String() string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	const maxChunk = maxPrealloc
	if n <= maxChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.r, buf); err != nil {
			r.err = err
			return ""
		}
		return string(buf)
	}
	var out []byte
	chunk := make([]byte, maxChunk)
	for n > 0 {
		c := chunk
		if n < len(c) {
			c = c[:n]
		}
		if _, err := io.ReadFull(r.r, c); err != nil {
			r.err = err
			return ""
		}
		out = append(out, c...)
		n -= len(c)
	}
	return string(out)
}
