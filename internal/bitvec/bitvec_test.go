package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a reference implementation over a bool slice.
type naive []bool

func (nv naive) rank1(i int) int {
	r := 0
	for j := 0; j < i && j < len(nv); j++ {
		if nv[j] {
			r++
		}
	}
	return r
}

func (nv naive) select1(k int) int {
	for i, b := range nv {
		if b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func (nv naive) select0(k int) int {
	for i, b := range nv {
		if !b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func randomBits(n int, p float64, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = rng.Float64() < p
	}
	return bs
}

func TestEmpty(t *testing.T) {
	v := FromBools(nil)
	if v.Len() != 0 || v.Ones() != 0 || v.Zeros() != 0 {
		t.Fatalf("empty vector: len=%d ones=%d zeros=%d", v.Len(), v.Ones(), v.Zeros())
	}
	if got := v.Rank1(0); got != 0 {
		t.Errorf("Rank1(0)=%d, want 0", got)
	}
	if got := v.Select1(1); got != -1 {
		t.Errorf("Select1(1)=%d, want -1", got)
	}
	if got := v.Select0(1); got != -1 {
		t.Errorf("Select0(1)=%d, want -1", got)
	}
}

func TestSingleBits(t *testing.T) {
	v1 := FromBools([]bool{true})
	if v1.Rank1(1) != 1 || v1.Select1(1) != 0 || v1.Get(0) != true {
		t.Errorf("one-bit vector misbehaves")
	}
	v0 := FromBools([]bool{false})
	if v0.Rank1(1) != 0 || v0.Select0(1) != 0 || v0.Get(0) != false {
		t.Errorf("zero-bit vector misbehaves")
	}
}

func TestGetMatchesInput(t *testing.T) {
	bs := randomBits(3000, 0.3, 1)
	v := FromBools(bs)
	for i, want := range bs {
		if v.Get(i) != want {
			t.Fatalf("Get(%d)=%v, want %v", i, v.Get(i), want)
		}
	}
}

func TestRankAgainstNaive(t *testing.T) {
	for _, p := range []float64{0.0, 0.01, 0.5, 0.99, 1.0} {
		bs := randomBits(4097, p, int64(p*100)+7)
		v := FromBools(bs)
		nv := naive(bs)
		for i := 0; i <= len(bs); i++ {
			if got, want := v.Rank1(i), nv.rank1(i); got != want {
				t.Fatalf("p=%v Rank1(%d)=%d, want %d", p, i, got, want)
			}
			if got, want := v.Rank0(i), i-nv.rank1(i); got != want {
				t.Fatalf("p=%v Rank0(%d)=%d, want %d", p, i, got, want)
			}
		}
	}
}

func TestSelectAgainstNaive(t *testing.T) {
	for _, p := range []float64{0.01, 0.5, 0.99} {
		bs := randomBits(5000, p, int64(p*1000)+13)
		v := FromBools(bs)
		nv := naive(bs)
		for k := 1; k <= v.Ones(); k++ {
			if got, want := v.Select1(k), nv.select1(k); got != want {
				t.Fatalf("p=%v Select1(%d)=%d, want %d", p, k, got, want)
			}
		}
		for k := 1; k <= v.Zeros(); k++ {
			if got, want := v.Select0(k), nv.select0(k); got != want {
				t.Fatalf("p=%v Select0(%d)=%d, want %d", p, k, got, want)
			}
		}
	}
}

func TestSelectOutOfRange(t *testing.T) {
	v := FromBools(randomBits(100, 0.5, 3))
	if v.Select1(0) != -1 || v.Select1(v.Ones()+1) != -1 {
		t.Error("Select1 out-of-range should be -1")
	}
	if v.Select0(0) != -1 || v.Select0(v.Zeros()+1) != -1 {
		t.Error("Select0 out-of-range should be -1")
	}
}

// Rank and Select are inverse: Rank1(Select1(k)) == k-1 and the bit is set.
func TestRankSelectInverse(t *testing.T) {
	f := func(seed int64, raw uint16) bool {
		n := int(raw)%2000 + 1
		bs := randomBits(n, 0.4, seed)
		v := FromBools(bs)
		for k := 1; k <= v.Ones(); k += 7 {
			pos := v.Select1(k)
			if pos < 0 || !v.Get(pos) || v.Rank1(pos) != k-1 {
				return false
			}
		}
		for k := 1; k <= v.Zeros(); k += 7 {
			pos := v.Select0(k)
			if pos < 0 || v.Get(pos) || v.Rank0(pos) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Rank is monotone and increments exactly on set bits.
func TestRankMonotone(t *testing.T) {
	f := func(seed int64) bool {
		bs := randomBits(1500, 0.5, seed)
		v := FromBools(bs)
		for i := 0; i < v.Len(); i++ {
			d := v.Rank1(i+1) - v.Rank1(i)
			if (d != 1) == v.Get(i) { // d must be 1 iff bit set
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuilderSet(t *testing.T) {
	b := NewBuilder(10)
	b.AppendN(false, 10)
	b.Set(3)
	b.Set(9)
	v := b.Build()
	if !v.Get(3) || !v.Get(9) || v.Ones() != 2 {
		t.Errorf("builder Set failed: ones=%d", v.Ones())
	}
}

func TestBuilderSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range should panic")
		}
	}()
	b := NewBuilder(4)
	b.Append(false)
	b.Set(1)
}

func TestLargeDense(t *testing.T) {
	// Cross several superblocks and select samples.
	n := superBits*5 + 17
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = i%3 == 0
	}
	v := FromBools(bs)
	nv := naive(bs)
	for i := 0; i <= n; i += 97 {
		if v.Rank1(i) != nv.rank1(i) {
			t.Fatalf("Rank1(%d) mismatch", i)
		}
	}
	for k := 1; k <= v.Ones(); k += 43 {
		if v.Select1(k) != nv.select1(k) {
			t.Fatalf("Select1(%d) mismatch", k)
		}
	}
	for k := 1; k <= v.Zeros(); k += 43 {
		if v.Select0(k) != nv.select0(k) {
			t.Fatalf("Select0(%d) mismatch", k)
		}
	}
}

func TestAllOnesAllZeros(t *testing.T) {
	n := 1025
	ones := make([]bool, n)
	for i := range ones {
		ones[i] = true
	}
	v := FromBools(ones)
	for k := 1; k <= n; k += 13 {
		if v.Select1(k) != k-1 {
			t.Fatalf("all-ones Select1(%d)=%d", k, v.Select1(k))
		}
	}
	zeros := make([]bool, n)
	v = FromBools(zeros)
	for k := 1; k <= n; k += 13 {
		if v.Select0(k) != k-1 {
			t.Fatalf("all-zeros Select0(%d)=%d", k, v.Select0(k))
		}
	}
}

func TestSizeBytesPositive(t *testing.T) {
	v := FromBools(randomBits(10000, 0.5, 11))
	if v.SizeBytes() < 10000/8 {
		t.Errorf("SizeBytes=%d implausibly small", v.SizeBytes())
	}
}

func BenchmarkRank1(b *testing.B) {
	v := FromBools(randomBits(1<<20, 0.5, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(i % v.Len())
	}
}

func BenchmarkSelect1(b *testing.B) {
	v := FromBools(randomBits(1<<20, 0.5, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(i%v.Ones() + 1)
	}
}

// selectInWordLoop is the original O(k) clear-lowest-bit implementation,
// kept as the reference for the branchless broadword version.
func selectInWordLoop(w uint64, k int) int {
	for i := 0; i < k-1; i++ {
		w &= w - 1 // clear lowest set bit
	}
	return bits.TrailingZeros64(w)
}

// The broadword selectInWord must agree with the loop version on every
// valid (word, rank) input shape: random words, sparse and dense words,
// single bits at every position, and all-ones.
func TestSelectInWordMatchesLoop(t *testing.T) {
	check := func(w uint64) {
		t.Helper()
		n := bits.OnesCount64(w)
		for k := 1; k <= n; k++ {
			if got, want := selectInWord(w, k), selectInWordLoop(w, k); got != want {
				t.Fatalf("selectInWord(%#x, %d) = %d, want %d", w, k, got, want)
			}
		}
	}
	for i := 0; i < 64; i++ {
		check(1 << uint(i))          // single bit
		check(^uint64(0) >> uint(i)) // dense suffix
		check(^uint64(0) << uint(i)) // dense prefix
	}
	check(^uint64(0))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		w := rng.Uint64()
		switch i % 3 {
		case 1:
			w &= rng.Uint64() & rng.Uint64() // sparse
		case 2:
			w |= rng.Uint64() | rng.Uint64() // dense
		}
		if w != 0 {
			check(w)
		}
	}
}

var sinkSelect int

func BenchmarkSelectInWord(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	words := make([]uint64, 1024)
	ranks := make([]int, 1024)
	for i := range words {
		for words[i] == 0 {
			words[i] = rng.Uint64()
		}
		ranks[i] = 1 + rng.Intn(bits.OnesCount64(words[i]))
	}
	b.Run("broadword", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(words)
			sinkSelect = selectInWord(words[j], ranks[j])
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(words)
			sinkSelect = selectInWordLoop(words[j], ranks[j])
		}
	})
}

// FromWords over packed words must answer exactly as the per-bit
// builder does, and must refuse words that do not match the length.
func TestFromWords(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		bs := randomBits(n, 0.4, int64(n))
		words := make([]uint64, (n+63)/64)
		for i, b := range bs {
			if b {
				words[i/64] |= 1 << uint(i%64)
			}
		}
		got, want := FromWords(words, n), FromBools(bs)
		if got.Len() != n || got.Ones() != want.Ones() || got.SizeBytes() != want.SizeBytes() {
			t.Fatalf("n=%d: len/ones/size %d/%d/%d, want %d/%d/%d", n,
				got.Len(), got.Ones(), got.SizeBytes(), n, want.Ones(), want.SizeBytes())
		}
		for i := 0; i <= n; i++ {
			if got.Rank1(i) != want.Rank1(i) {
				t.Fatalf("n=%d: Rank1(%d) = %d, want %d", n, i, got.Rank1(i), want.Rank1(i))
			}
		}
		for k := 1; k <= want.Ones(); k++ {
			if got.Select1(k) != want.Select1(k) {
				t.Fatalf("n=%d: Select1(%d) = %d, want %d", n, k, got.Select1(k), want.Select1(k))
			}
		}
		for k := 1; k <= want.Zeros(); k++ {
			if got.Select0(k) != want.Select0(k) {
				t.Fatalf("n=%d: Select0(%d) = %d, want %d", n, k, got.Select0(k), want.Select0(k))
			}
		}
	}
	for name, build := range map[string]func(){
		"short":   func() { FromWords(make([]uint64, 1), 65) },
		"long":    func() { FromWords(make([]uint64, 2), 64) },
		"padding": func() { FromWords([]uint64{1 << 10}, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromWords accepted %s words", name)
				}
			}()
			build()
		}()
	}
}
