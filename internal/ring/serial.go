package ring

import (
	"errors"
	"fmt"

	"ringrpq/internal/serial"
	"ringrpq/internal/wavelet"
)

// Encode writes the ring: the three wavelet sequences plus metadata.
// The C arrays are the sequences' own symbol counts and need no
// section of their own.
func (r *Ring) Encode(w *serial.Writer) {
	w.Magic("rng1")
	w.Int(r.N)
	w.Int(r.NumNodes)
	w.Uvarint(uint64(r.NumPreds))
	for _, m := range []*wavelet.Matrix{r.Lo, r.Ls, r.Lp} {
		w.Int(0) // sequence kind: a wavelet matrix
		m.Encode(w)
	}
}

// Decode reads a ring written by Encode. Sequence kind 1, the wavelet
// tree older builds wrote, is rejected with an error that says how to
// upgrade the file.
func Decode(rd *serial.Reader) (*Ring, error) {
	rd.Magic("rng1")
	r := &Ring{}
	r.N = rd.Int()
	r.NumNodes = rd.Int()
	r.NumPreds = uint32(rd.Uvarint())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	seqs := make([]*wavelet.Matrix, 3)
	for i := range seqs {
		kind := rd.Int()
		if err := rd.Err(); err != nil {
			return nil, err
		}
		if kind == 1 {
			return nil, errors.New("ring: sequence kind 1, the wavelet-tree layout, is no longer read; " +
				"load and re-save the file with commit d7a9cda, the last that reads it")
		}
		if kind != 0 {
			return nil, fmt.Errorf("ring: unknown sequence kind %d", kind)
		}
		var err error
		if seqs[i], err = wavelet.DecodeMatrix(rd); err != nil {
			return nil, err
		}
		if seqs[i].Len() != r.N {
			return nil, fmt.Errorf("ring: sequence %d length %d, want %d", i, seqs[i].Len(), r.N)
		}
	}
	// Tie the header's id spaces to the sequences' alphabets, so the C
	// arrays below cover exactly those spaces and every id the engine
	// derives from a C array is a valid wavelet symbol.
	if int64(seqs[0].Sigma()) != int64(r.NumNodes) || int64(seqs[1].Sigma()) != int64(r.NumNodes) {
		return nil, fmt.Errorf("ring: node alphabets (%d, %d) disagree with header %d",
			seqs[0].Sigma(), seqs[1].Sigma(), r.NumNodes)
	}
	if seqs[2].Sigma() != r.NumPreds {
		return nil, fmt.Errorf("ring: predicate alphabet %d disagrees with header %d", seqs[2].Sigma(), r.NumPreds)
	}
	r.Lo, r.Ls, r.Lp = seqs[0], seqs[1], seqs[2]
	r.viewC()
	return r, nil
}
