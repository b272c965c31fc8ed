package wavelet

import (
	"fmt"
	"math/bits"

	"ringrpq/internal/bitvec"
)

// Edit is one change to a matrix's sequence, addressed in the old
// sequence: Sym inserted before old position Pos (Pos = Len()
// appends), or, with Del, the removal of the element at Pos, which
// holds Sym.
type Edit struct {
	Pos int
	Sym uint32
	Del bool
}

// Merge returns the matrix of this sequence with edits applied, over
// the alphabet [0, sigma), sigma ≥ Sigma(): the matrix NewMatrix
// builds over the edited sequence, bit for bit, without decoding this
// one. Edits are sorted by Pos; at one Pos the insertions come first,
// in the order they take in the new sequence, and then the deletion.
//
// Every level is a stable partition of the one above, so each edit is
// followed down the levels by one rank per level: its level bit sends
// it to the zeros' block at Rank0(Pos) or to the ones' at zeros +
// Rank1(Pos), and the edits keep their order within each block. A new
// level is the old one copied a word at a time between edit positions,
// less the deleted bits and plus the inserted ones, and the copy counts
// the ranks as it goes. The cost is O(n/64 + k) per level for k edits.
// A wider alphabet adds levels on top, where every old symbol's bit is
// 0: they are merged as old all-zero levels. A deletion is checked
// against the old bits on every level, so it removes its symbol or
// panics.
func (m *Matrix) Merge(edits []Edit, sigma uint32) *Matrix {
	if sigma == 0 {
		sigma = 1
	}
	if sigma < m.sigma {
		panic(fmt.Sprintf("wavelet: merge shrinks the alphabet from %d to %d", m.sigma, sigma))
	}
	width := matrixWidth(sigma)
	grow := width - m.width
	n := m.n
	delta := make([]int, sigma) // per symbol: insertions less deletions
	prev := Edit{Pos: -1}
	for _, e := range edits {
		if e.Pos < prev.Pos || e.Pos == prev.Pos && prev.Del || e.Pos > m.n || e.Del && e.Pos == m.n {
			panic(fmt.Sprintf("wavelet: merge edit at %d out of order or out of [0, %d]", e.Pos, m.n))
		}
		if e.Sym >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d out of alphabet [0,%d)", e.Sym, sigma))
		}
		prev = e
		if e.Del {
			n--
			delta[e.Sym]--
		} else {
			n++
			delta[e.Sym]++
		}
	}
	if err := bitvec.CheckLen(n); err != nil {
		panic(err)
	}

	nm := &Matrix{n: n, sigma: sigma, width: width}
	nm.counts = make([]int, sigma+1)
	for c, d := range delta {
		k := d
		if c < int(m.sigma) {
			k += m.counts[c+1] - m.counts[c]
		}
		if k < 0 {
			panic(fmt.Sprintf("wavelet: merge deletes more occurrences of %d than the sequence holds", c))
		}
		nm.counts[c+1] = nm.counts[c] + k
	}
	nm.levels = make([]*bitvec.Vector, width)
	nm.zeros = make([]int, width)
	cur := append([]Edit(nil), edits...)
	next := make([]Edit, len(edits))
	r1 := make([]int, len(edits)) // per edit: Rank1(Pos) in the old level
	for l := 0; l < width; l++ {
		bit := uint(width - 1 - l)
		var old *bitvec.Vector // nil: a new top level, all zeros
		var src []uint64
		z := m.n
		if l >= grow {
			old = m.levels[l-grow]
			src, z = old.Words(), old.Zeros()
		}
		words := make([]uint64, (n+63)/64)
		d, s, ones := 0, 0, 0
		for i, e := range cur {
			b := uint64(e.Sym >> bit & 1)
			ones += copyBits(words, d, src, s, e.Pos)
			d += e.Pos - s
			s = e.Pos
			r1[i] = ones
			if e.Del {
				var was uint64 // the deleted element's bit here
				if src != nil {
					was = src[s>>6] >> uint(s&63) & 1
				}
				if was != b {
					panic(fmt.Sprintf("wavelet: merge deletes symbol %d where the sequence does not hold it", e.Sym))
				}
				ones += int(b)
				s++
				continue
			}
			words[d>>6] |= b << uint(d&63)
			d++
		}
		copyBits(words, d, src, s, m.n)
		nm.levels[l] = bitvec.FromWords(words, n)
		nm.zeros[l] = nm.levels[l].Zeros()
		if l == width-1 {
			break
		}
		// Stable partition of the edits by their bit, each mapped to
		// its position in the old sequence's next level.
		k0 := 0
		for _, e := range cur {
			k0 += int(e.Sym>>bit&1 ^ 1)
		}
		zi, oi := 0, k0
		for i, e := range cur {
			if e.Sym>>bit&1 == 0 {
				e.Pos -= r1[i]
				next[zi] = e
				zi++
			} else {
				e.Pos = z + r1[i]
				next[oi] = e
				oi++
			}
		}
		cur, next = next, cur
	}
	nm.setBottomStarts()
	return nm
}

// copyBits copies bits [a, b) of src to dst from bit d on, one source
// word per step, and returns how many of them are ones; dst must be
// zero from d on. A nil src stands for zeros, which need no copy.
func copyBits(dst []uint64, d int, src []uint64, a, b int) (ones int) {
	if src == nil {
		return 0
	}
	for a < b {
		k := min(b-a, 64-a&63)
		v := src[a>>6] >> uint(a&63)
		if k < 64 {
			v &= 1<<uint(k) - 1
		}
		ones += bits.OnesCount64(v)
		dst[d>>6] |= v << uint(d&63)
		if d&63+k > 64 {
			dst[d>>6+1] |= v >> uint(64-d&63)
		}
		a += k
		d += k
	}
	return ones
}
