// Package lazy provides lazily-initialised working arrays that can be
// "cleared" in O(1) between queries. The paper (§4.2, citing Navarro's
// compact lazy-initialisation structure) needs per-node visited-state masks
// D[s] over all |V| graph nodes and all wavelet-tree nodes, zeroed before
// every query; actually zeroing them would cost O(|V|) per query. We use
// the classical epoch (timestamp) technique: a slot is valid only if its
// epoch matches the current one, so Reset is a single increment.
package lazy

// MaskArray is an array of uint64 bitmasks with O(1) Reset.
type MaskArray struct {
	vals   []uint64
	epochs []uint32
	epoch  uint32
}

// NewMaskArray returns a zeroed mask array of length n.
func NewMaskArray(n int) *MaskArray {
	return &MaskArray{
		vals:   make([]uint64, n),
		epochs: make([]uint32, n),
		epoch:  1,
	}
}

// Len reports the array length.
func (a *MaskArray) Len() int { return len(a.vals) }

// Get returns the mask at i (zero if untouched since the last Reset).
func (a *MaskArray) Get(i int) uint64 {
	if a.epochs[i] != a.epoch {
		return 0
	}
	return a.vals[i]
}

// Or sets a[i] |= m and returns the new value.
func (a *MaskArray) Or(i int, m uint64) uint64 {
	if a.epochs[i] != a.epoch {
		a.epochs[i] = a.epoch
		a.vals[i] = m
		return m
	}
	a.vals[i] |= m
	return a.vals[i]
}

// Set stores m at i.
func (a *MaskArray) Set(i int, m uint64) {
	a.epochs[i] = a.epoch
	a.vals[i] = m
}

// Reset logically zeroes the whole array in O(1) (amortised: on epoch
// wraparound it pays one true O(n) clear every 2^32 resets).
func (a *MaskArray) Reset() {
	a.epoch++
	if a.epoch == 0 {
		for i := range a.epochs {
			a.epochs[i] = 0
		}
		a.epoch = 1
	}
}

// SizeBytes reports the memory footprint.
func (a *MaskArray) SizeBytes() int { return 8*len(a.vals) + 4*len(a.epochs) + 16 }
