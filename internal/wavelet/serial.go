package wavelet

import (
	"fmt"

	"ringrpq/internal/bitvec"
	"ringrpq/internal/serial"
)

// Encode writes the matrix: levels and counts; zeros and bottom starts
// are derived on load.
func (m *Matrix) Encode(w *serial.Writer) {
	w.Magic("wm01")
	w.Int(m.n)
	w.Uvarint(uint64(m.sigma))
	w.Int(m.width)
	for _, lv := range m.levels {
		lv.Encode(w)
	}
	w.Ints(m.counts)
}

// DecodeMatrix reads a matrix written by Encode.
func DecodeMatrix(r *serial.Reader) (*Matrix, error) {
	r.Magic("wm01")
	m := &Matrix{}
	m.n = r.Int()
	m.sigma = uint32(r.Uvarint())
	m.width = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The width is a function of the alphabet; a larger one would also
	// make the bottom-order enumeration outgrow the input.
	if m.width != matrixWidth(max(m.sigma, 1)) {
		return nil, fmt.Errorf("wavelet: corrupt matrix width %d for alphabet %d", m.width, m.sigma)
	}
	m.levels = make([]*bitvec.Vector, m.width)
	m.zeros = make([]int, m.width)
	for l := 0; l < m.width; l++ {
		m.levels[l] = bitvec.Decode(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if m.levels[l].Len() != m.n {
			return nil, fmt.Errorf("wavelet: corrupt level %d length %d, want %d", l, m.levels[l].Len(), m.n)
		}
		m.zeros[l] = m.levels[l].Zeros()
	}
	m.counts = r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkCounts(m.counts, int(m.sigma), m.n); err != nil {
		return nil, err
	}
	m.setBottomStarts()
	return m, nil
}

// checkCounts validates a decoded symbol-count prefix-sum array: one
// entry per symbol plus a terminator, starting at zero, nondecreasing,
// and summing to the sequence length. Decoders derive allocation sizes
// and positions from these, so corrupt counts must be rejected here.
func checkCounts(counts []int, sigma, n int) error {
	if len(counts) != sigma+1 {
		return fmt.Errorf("wavelet: corrupt counts length %d for alphabet %d", len(counts), sigma)
	}
	if counts[0] != 0 || counts[sigma] != n {
		return fmt.Errorf("wavelet: corrupt counts bounds [%d, %d], want [0, %d]", counts[0], counts[sigma], n)
	}
	for c := 0; c < sigma; c++ {
		if counts[c+1] < counts[c] {
			return fmt.Errorf("wavelet: counts not nondecreasing at symbol %d", c)
		}
	}
	return nil
}

// Encode writes the tree: counts plus the node bitvectors in heap order
// (present-flag per slot).
func (t *Tree) Encode(w *serial.Writer) {
	w.Magic("wt01")
	w.Int(t.n)
	w.Uvarint(uint64(t.sigma))
	w.Int(t.numIDs)
	w.Ints(t.counts)
	present := 0
	for _, bv := range t.nodes {
		if bv != nil {
			present++
		}
	}
	w.Int(present)
	for id, bv := range t.nodes {
		if bv != nil {
			w.Int(id)
			bv.Encode(w)
		}
	}
}

// DecodeTree reads a tree written by Encode.
func DecodeTree(r *serial.Reader) (*Tree, error) {
	r.Magic("wt01")
	t := &Tree{}
	t.n = r.Int()
	t.sigma = uint32(r.Uvarint())
	t.numIDs = r.Int()
	t.counts = r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkCounts(t.counts, int(t.sigma), t.n); err != nil {
		return nil, err
	}
	// NewTree allocates 2^(depth+1) node slots for the smallest depth
	// with 2^depth ≥ sigma, so numIDs never exceeds 4·sigma (and is at
	// least 2); anything else is corrupt — and would otherwise let a
	// few header bytes demand an arbitrarily large allocation.
	if t.numIDs < 2 || t.numIDs > 4*max(int(t.sigma), 1) {
		return nil, fmt.Errorf("wavelet: corrupt tree node count %d for alphabet %d", t.numIDs, t.sigma)
	}
	t.nodes = make([]*bitvec.Vector, t.numIDs)
	present := r.Int()
	for i := 0; i < present; i++ {
		id := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if id < 1 || id >= t.numIDs {
			return nil, fmt.Errorf("wavelet: corrupt node id %d", id)
		}
		t.nodes[id] = bitvec.Decode(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
	}
	return t, nil
}
