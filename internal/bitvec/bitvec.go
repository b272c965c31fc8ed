// Package bitvec provides plain bitvectors with constant-time rank and
// logarithmic-time select, the building blocks of the wavelet matrices
// used by the ring index (paper §3.5). The rank directory follows the
// classic two-level scheme of Clark and Munro: an absolute 32-bit count
// every 512-bit superblock (6.25 % over the bits) plus popcounts per
// 64-bit word. Select binary-searches those counts and keeps no
// directory of its own. The 32-bit counts limit a vector to fewer than
// 2^32 bits.
package bitvec

import (
	"fmt"
	"math/bits"
)

// wordsPerSuper is the number of 64-bit words per rank superblock:
// 8 words = 512 bits per 32-bit count, at most 7 popcounts per rank.
const wordsPerSuper = 8

// maxLen is the longest vector the 32-bit rank counts can describe.
const maxLen = 1<<32 - 1

// CheckLen reports an error unless n bits fit a Vector (n < 2^32).
func CheckLen(n int) error {
	if n > maxLen {
		return fmt.Errorf("bitvec: length %d does not fit the 32-bit rank counts (max %d)", n, maxLen)
	}
	return nil
}

// Builder accumulates bits before freezing them into a Vector.
// The zero value is an empty builder ready for use.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a builder with capacity for n bits preallocated.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, 0, (n+63)/64)}
}

// Append adds a single bit.
func (b *Builder) Append(bit bool) {
	if b.n%64 == 0 {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[b.n/64] |= 1 << uint(b.n%64)
	}
	b.n++
}

// Len reports the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// Set sets bit i (which must already have been appended) to 1.
func (b *Builder) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/64] |= 1 << uint(i%64)
}

// Build freezes the builder into an immutable Vector with rank/select
// support. The builder must not be used afterwards.
func (b *Builder) Build() *Vector { return FromWords(b.words, b.n) }

// FromWords freezes n bits already packed 64 to a word (bit i is bit
// i%64 of words[i/64]) into a Vector, taking ownership of words: the
// bulk constructor for callers that produce whole words at a time.
// There must be exactly ⌈n/64⌉ words, the bits past n must be zero
// (the rank directory counts them otherwise) and n must pass CheckLen.
func FromWords(words []uint64, n int) *Vector {
	if err := CheckLen(n); err != nil {
		panic(err)
	}
	if len(words) != (n+63)/64 {
		panic(fmt.Sprintf("bitvec: %d words for %d bits", len(words), n))
	}
	if n%64 != 0 && words[len(words)-1]>>uint(n%64) != 0 {
		panic(fmt.Sprintf("bitvec: nonzero padding bits beyond length %d", n))
	}
	v := &Vector{words: words, n: n}
	v.buildRank()
	return v
}

// FromBools builds a Vector directly from a bool slice; convenient in tests.
func FromBools(bs []bool) *Vector {
	b := NewBuilder(len(bs))
	for _, x := range bs {
		b.Append(x)
	}
	return b.Build()
}

// Vector is an immutable bitvector supporting O(1) Rank and
// O(log superblocks) Select. Build once, query concurrently.
type Vector struct {
	words []uint64
	n     int

	// super[i] = number of one-bits strictly before superblock i.
	super []uint32
	ones  int
}

func (v *Vector) buildRank() {
	nSuper := (len(v.words) + wordsPerSuper - 1) / wordsPerSuper
	v.super = make([]uint32, nSuper+1)
	var acc uint32
	for i, w := range v.words {
		if i%wordsPerSuper == 0 {
			v.super[i/wordsPerSuper] = acc
		}
		acc += uint32(bits.OnesCount64(w))
	}
	v.super[nSuper] = acc
	v.ones = int(acc)
}

// Len reports the number of bits.
func (v *Vector) Len() int { return v.n }

// Words exposes the packed bits (see FromWords for the layout) as a
// read-only view, for callers that consume the vector a word at a time.
func (v *Vector) Words() []uint64 { return v.words }

// Ones reports the total number of one-bits.
func (v *Vector) Ones() int { return v.ones }

// Zeros reports the total number of zero-bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Get reports bit i.
func (v *Vector) Get(i int) bool {
	return v.words[i/64]&(1<<uint(i%64)) != 0
}

// Rank1 reports the number of one-bits in the prefix [0, i).
// i may equal Len().
func (v *Vector) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.ones
	}
	wi := i / 64
	r := int(v.super[wi/wordsPerSuper])
	for j := wi - wi%wordsPerSuper; j < wi; j++ {
		r += bits.OnesCount64(v.words[j])
	}
	r += bits.OnesCount64(v.words[wi] & (1<<uint(i%64) - 1))
	return r
}

// Rank0 reports the number of zero-bits in the prefix [0, i).
func (v *Vector) Rank0(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= v.n {
		return v.n - v.ones
	}
	return i - v.Rank1(i)
}

// Select1 reports the position of the k-th one-bit (k is 1-based),
// or -1 if there are fewer than k one-bits.
func (v *Vector) Select1(k int) int {
	if k <= 0 || k > v.ones {
		return -1
	}
	// Binary-search for the last superblock with fewer than k ones
	// before it, then scan at most wordsPerSuper words.
	lo, hi := 0, len(v.super)-1 // superblock index range [lo, hi)
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if int(v.super[mid]) < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	rem := k - int(v.super[lo])
	for j := lo * wordsPerSuper; j < len(v.words); j++ {
		c := bits.OnesCount64(v.words[j])
		if rem <= c {
			return j*64 + selectInWord(v.words[j], rem)
		}
		rem -= c
	}
	return -1
}

// Broadword select constants: l8 replicates a byte across the word, h8
// marks every byte's high bit (Vigna, "Broadword implementation of
// rank/select queries").
const (
	l8 = 0x0101010101010101
	h8 = 0x8080808080808080
)

// selectInByte[r<<8|b] is the position of the (r+1)-th set bit of the
// byte b (2 KiB, shared by all vectors).
var selectInByte = buildSelectInByte()

func buildSelectInByte() [8 * 256]uint8 {
	var t [8 * 256]uint8
	for b := 0; b < 256; b++ {
		r := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[r<<8|b] = uint8(i)
				r++
			}
		}
	}
	return t
}

// selectInWord returns the position (0-63) of the k-th (1-based) set bit
// of w, which must have at least k set bits. It is constant-time and
// branchless: a SWAR popcount accumulates per-byte prefix sums, a
// parallel unsigned byte compare against k skips whole bytes, and an
// 8-bit lookup finishes inside the target byte.
func selectInWord(w uint64, k int) int {
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	byteSums := s * l8  // byte i holds popcount of bytes 0..i (≤ 64)
	kk := uint64(k - 1) // 0-based rank, ≤ 63
	// Byte i of the subtraction keeps its high bit iff byteSums_i ≤ kk
	// (both operands fit 7 bits, so no borrows cross bytes): those are
	// exactly the bytes wholly before the target bit.
	place := uint(bits.OnesCount64(((kk*l8|h8)-byteSums)&h8)) * 8
	byteRank := kk - (byteSums<<8>>place)&0xff // rank within the target byte
	return int(place) + int(selectInByte[byteRank<<8|w>>place&0xff])
}

// SizeBytes reports the memory footprint of the vector including its
// rank directory.
func (v *Vector) SizeBytes() int {
	return 8*len(v.words) + 4*len(v.super) + 32
}
