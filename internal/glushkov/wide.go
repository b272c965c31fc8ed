package glushkov

import "math/bits"

// Mask is a multiword state set for automata beyond 64 states. Bit i of
// the mask (bit i%64 of word i/64) is state i.
type Mask []uint64

// NewMask returns an all-zero mask with capacity for nbits states.
func NewMask(nbits int) Mask { return make(Mask, (nbits+63)/64) }

// Test reports bit i.
func (m Mask) Test(i int) bool { return m[i/64]&(1<<uint(i%64)) != 0 }

// Set sets bit i.
func (m Mask) Set(i int) { m[i/64] |= 1 << uint(i%64) }

// Any reports whether any bit is set.
func (m Mask) Any() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

// Zero clears all bits.
func (m Mask) Zero() {
	for i := range m {
		m[i] = 0
	}
}

// CopyFrom overwrites m with src.
func (m Mask) CopyFrom(src Mask) { copy(m, src) }

// Or sets m |= x.
func (m Mask) Or(x Mask) {
	for i, w := range x {
		m[i] |= w
	}
}

// AndNot sets m &= ^x.
func (m Mask) AndNot(x Mask) {
	for i, w := range x {
		m[i] &^= w
	}
}

// Intersects reports whether m ∩ x is nonempty.
func (m Mask) Intersects(x Mask) bool {
	for i, w := range x {
		if m[i]&w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy.
func (m Mask) Clone() Mask {
	out := make(Mask, len(m))
	copy(out, m)
	return out
}

// wideChunkBits is the fixed subtable width of the Wide engine. Eight
// bits keeps chunks word-aligned (64/8) so chunk extraction never
// straddles words.
const wideChunkBits = 8

// Wide is the multiword bit-parallel simulator for automata with more
// than 64 states (the general case of §3.3, where all costs gain a factor
// O(m/w)), run right to left like Engine. Its reverse table T' (Eq. 2)
// is split into 8-bit subtables of multiword entries. StepRevInto
// writes into a caller-provided destination mask to stay
// allocation-free.
type Wide struct {
	A     *Automaton
	B     map[uint32]Mask
	F     Mask
	nbits int

	trev [][]Mask // [chunk][256] → reverse reachability

	// Class support (see Engine): direction masks of class positions,
	// per-symbol exclusion masks, and a scratch buffer for resolved
	// B-masks (Wide is not concurrency-safe).
	numCompleted uint32
	negFwd       Mask
	negInv       Mask
	negExcl      map[uint32]Mask
	bScratch     Mask
}

// NewWideFor builds the multiword engine for an alphabet of
// numCompleted completed ids (0 when the automaton has no symbol
// classes); it works for any m.
func NewWideFor(a *Automaton, numCompleted uint32) *Wide {
	nbits := a.M + 1
	w := &Wide{A: a, nbits: nbits, numCompleted: numCompleted}
	w.negFwd = NewMask(nbits)
	w.negInv = NewMask(nbits)
	w.negExcl = map[uint32]Mask{}
	w.bScratch = NewMask(nbits)
	for j, cl := range a.Classes {
		if cl == nil {
			continue
		}
		dir := w.negFwd
		if cl.Inverse {
			dir = w.negInv
		}
		dir.Set(j + 1)
		for _, c := range cl.Excl {
			if w.negExcl[c] == nil {
				w.negExcl[c] = NewMask(nbits)
			}
			w.negExcl[c].Set(j + 1)
		}
	}
	w.F = NewMask(nbits)
	for _, j := range a.Last {
		w.F.Set(int(j))
	}
	if a.Nullable {
		w.F.Set(0)
	}
	w.B = make(map[uint32]Mask, a.M)
	for j, c := range a.Syms {
		if c == NoSymbol {
			continue
		}
		if w.B[c] == nil {
			w.B[c] = NewMask(nbits)
		}
		w.B[c].Set(j + 1)
	}

	// pred[j] = the states j may follow: T'[{j}].
	pred := make([]Mask, nbits)
	for j := range pred {
		pred[j] = NewMask(nbits)
	}
	for i, fs := range a.Follow {
		for _, j := range fs {
			pred[j].Set(i)
		}
	}
	for base := 0; base < nbits; base += wideChunkBits {
		// rev[x] = rev[x without its lowest bit] | pred[that bit].
		rev := make([]Mask, 1<<wideChunkBits)
		rev[0] = NewMask(nbits)
		for x := 1; x < len(rev); x++ {
			rev[x] = rev[x&(x-1)].Clone()
			if i := base + bits.TrailingZeros(uint(x)); i < nbits {
				rev[x].Or(pred[i])
			}
		}
		w.trev = append(w.trev, rev)
	}
	return w
}

// NewMask returns a zero mask sized for this engine.
func (w *Wide) NewMask() Mask { return NewMask(w.nbits) }

// BFor returns the positions readable by symbol c (including class
// positions), or nil when there are none. The returned mask may be a
// scratch buffer invalidated by the next call.
func (w *Wide) BFor(c uint32) Mask {
	if !w.negFwd.Any() && !w.negInv.Any() {
		return w.B[c]
	}
	if c >= w.numCompleted {
		return w.B[c]
	}
	w.bScratch.Zero()
	if b, ok := w.B[c]; ok {
		w.bScratch.CopyFrom(b)
	}
	dir := w.negFwd
	if c >= w.numCompleted/2 {
		dir = w.negInv
	}
	w.bScratch.Or(dir)
	if excl, ok := w.negExcl[c]; ok {
		w.bScratch.AndNot(excl)
	}
	if !w.bScratch.Any() {
		return nil
	}
	return w.bScratch
}

// NegClassBits reports whether any class position exists per direction.
func (w *Wide) NegClassBits() (fwd, inv bool) { return w.negFwd.Any(), w.negInv.Any() }

// StepRevInto sets dst = T'[d & B[c]] (Eq. 2). dst must not alias d or
// the BFor scratch.
func (w *Wide) StepRevInto(dst, d Mask, c uint32) {
	b := w.BFor(c)
	if b == nil {
		dst.Zero()
		return
	}
	dst.Zero()
	for k := range w.trev {
		x := int((d[k/8] & b[k/8]) >> uint(k%8*8) & 0xff)
		dst.Or(w.trev[k][x])
	}
}

// AcceptsRev reports whether d contains the initial state.
func (w *Wide) AcceptsRev(d Mask) bool { return d.Test(0) }

// MatchRev simulates the word right to left.
func (w *Wide) MatchRev(word []uint32) bool {
	d := w.F.Clone()
	tmp := w.NewMask()
	for i := len(word) - 1; i >= 0; i-- {
		w.StepRevInto(tmp, d, word[i])
		d, tmp = tmp, d
		if !d.Any() {
			return false
		}
	}
	return w.AcceptsRev(d)
}
