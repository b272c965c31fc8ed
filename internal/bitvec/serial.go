package bitvec

import (
	"fmt"

	"ringrpq/internal/serial"
)

// Encode writes the vector's bits; the rank directory is rebuilt on
// load.
func (v *Vector) Encode(w *serial.Writer) {
	w.Magic("bv01")
	w.Int(v.n)
	w.Uint64s(v.words)
}

// Decode reads a vector written by Encode. The claimed bit count must
// pass CheckLen (checked before any word is read) and be consistent
// with the stored words (with zeroed padding bits), so the rank
// directory — whose size derives from it — stays bounded by the input
// actually read.
func Decode(r *serial.Reader) *Vector {
	r.Magic("bv01")
	n := r.Int()
	if err := CheckLen(n); err != nil {
		r.Fail(err)
	}
	words := r.Uint64s()
	if r.Err() != nil {
		return nil
	}
	if len(words) != (n+63)/64 {
		r.Fail(fmt.Errorf("bitvec: %d words for %d bits", len(words), n))
		return nil
	}
	if n%64 != 0 && len(words) > 0 && words[len(words)-1]>>(uint(n%64)) != 0 {
		r.Fail(fmt.Errorf("bitvec: nonzero padding bits beyond length %d", n))
		return nil
	}
	return FromWords(words, n)
}
