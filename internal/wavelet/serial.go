package wavelet

import (
	"fmt"
	"math/bits"

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
	if err := bitvec.CheckLen(m.n); err != nil {
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

// maxBareLen caps the length of a legacy tree section over a one-symbol
// alphabet: such a section stores no bits, so nothing read backs the
// length it claims.
const maxBareLen = 1 << 20

// DecodeTreeSymbols reads a sequence section written by the wavelet-tree
// layout older files used and returns the symbols it holds, for the
// caller to build a Matrix over. The section is its length, alphabet,
// node-slot count and symbol counts, then the internal nodes' bitvectors
// by heap id, a node over [lo, hi) splitting its symbols at (lo+hi)/2.
// Every internal node over a non-empty symbol range must be present,
// with as many bits as its range has occurrences and as many zeros as
// its left half has; nothing else may be.
func DecodeTreeSymbols(r *serial.Reader) ([]uint32, uint32, error) {
	r.Magic("wt01")
	n := r.Int()
	sigma := uint32(r.Uvarint())
	numIDs := r.Int()
	counts := r.Ints()
	present := r.Int()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if err := bitvec.CheckLen(n); err != nil {
		return nil, 0, err
	}
	if err := checkCounts(counts, int(sigma), n); err != nil {
		return nil, 0, err
	}
	// The writer allocated 2^(depth+1) slots for the least depth with
	// 2^depth ≥ σ, so every internal node's id is below numIDs/2.
	if numIDs != 2<<bits.Len32(max(sigma, 1)-1) {
		return nil, 0, fmt.Errorf("wavelet: corrupt tree node count %d for alphabet %d", numIDs, sigma)
	}
	nodes := make([]*bitvec.Vector, numIDs)
	for i := 0; i < present; i++ {
		id := r.Int()
		if err := r.Err(); err != nil {
			return nil, 0, err
		}
		if id < 1 || id >= numIDs || nodes[id] != nil {
			return nil, 0, fmt.Errorf("wavelet: corrupt or repeated tree node id %d", id)
		}
		nodes[id] = bitvec.Decode(r)
		if err := r.Err(); err != nil {
			return nil, 0, err
		}
	}
	// Only bits already read may size the output: the root's, or the cap
	// when there is no internal node.
	if sigma <= 1 && n > maxBareLen || sigma > 1 && n > 0 && (nodes[1] == nil || nodes[1].Len() != n) {
		return nil, 0, fmt.Errorf("wavelet: corrupt tree length %d for alphabet %d", n, sigma)
	}
	buf := make([]uint32, 2*n)
	if err := treeSymbols(nodes, counts, 1, 0, sigma, buf[:n], buf[n:]); err != nil {
		return nil, 0, err
	}
	for id, bv := range nodes {
		if bv != nil {
			return nil, 0, fmt.Errorf("wavelet: tree node %d lies outside the tree", id)
		}
	}
	return buf[:n], sigma, nil
}

// treeSymbols decodes the subtree of node id, covering symbols [lo, hi),
// into dst (len(dst) is the subtree's occurrence count) by a recursive
// split: the children are decoded into the halves of tmp and merged
// back in sequence order by the node's bits. Each node it reads is
// checked against the counts and cleared from nodes.
func treeSymbols(nodes []*bitvec.Vector, counts []int, id int, lo, hi uint32, dst, tmp []uint32) error {
	if len(dst) == 0 {
		return nil
	}
	if hi-lo <= 1 {
		for i := range dst {
			dst[i] = lo
		}
		return nil
	}
	mid := (lo + hi) / 2
	bv, z := nodes[id], counts[mid]-counts[lo]
	if bv == nil || bv.Len() != len(dst) || bv.Zeros() != z {
		return fmt.Errorf("wavelet: tree node %d missing or disagrees with the symbol counts", id)
	}
	nodes[id] = nil
	if err := treeSymbols(nodes, counts, 2*id, lo, mid, tmp[:z], dst[:z]); err != nil {
		return err
	}
	if err := treeSymbols(nodes, counts, 2*id+1, mid, hi, tmp[z:], dst[z:]); err != nil {
		return err
	}
	unpartition(bv, dst, tmp)
	return nil
}
