package wavelet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// naiveSeq is a reference implementation over a plain slice.
type naiveSeq struct {
	data  []uint32
	sigma uint32
}

func (n naiveSeq) access(i int) uint32 { return n.data[i] }

func (n naiveSeq) rank(c uint32, i int) int {
	r := 0
	for j := 0; j < i && j < len(n.data); j++ {
		if n.data[j] == c {
			r++
		}
	}
	return r
}

func (n naiveSeq) sel(c uint32, k int) int {
	for i, x := range n.data {
		if x == c {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func (n naiveSeq) distinct(b, e int) map[uint32][2]int {
	out := map[uint32][2]int{}
	for _, c := range n.data[b:e] {
		rb := n.rank(c, b)
		re := n.rank(c, e)
		out[c] = [2]int{rb, re}
	}
	return out
}

func randSeq(n int, sigma uint32, seed int64) naiveSeq {
	rng := rand.New(rand.NewSource(seed))
	d := make([]uint32, n)
	for i := range d {
		d[i] = uint32(rng.Intn(int(sigma)))
	}
	return naiveSeq{d, sigma}
}

// matrix builds the Matrix the tests check against n.
func matrix(n naiveSeq) *Matrix { return NewMatrix(n.data, n.sigma) }

func TestAccessRank(t *testing.T) {
	for _, sigma := range []uint32{1, 2, 3, 5, 8, 17, 100} {
		ns := randSeq(700, sigma, int64(sigma))
		s := matrix(ns)
		if s.Len() != 700 || s.Sigma() != sigma {
			t.Fatalf("sigma=%d: Len/Sigma wrong", sigma)
		}
		for i := range ns.data {
			if got := s.Access(i); got != ns.data[i] {
				t.Fatalf("sigma=%d Access(%d)=%d, want %d", sigma, i, got, ns.data[i])
			}
		}
		for c := uint32(0); c < sigma; c++ {
			for i := 0; i <= len(ns.data); i += 31 {
				if got, want := s.Rank(c, i), ns.rank(c, i); got != want {
					t.Fatalf("sigma=%d Rank(%d,%d)=%d, want %d", sigma, c, i, got, want)
				}
			}
			cnt := ns.rank(c, len(ns.data))
			if s.Count(c) != cnt {
				t.Fatalf("Count(%d)=%d, want %d", c, s.Count(c), cnt)
			}
		}
	}
}

// Symbols must agree with Access at every position, including the
// shapes a compaction can meet: an empty sequence (an
// empty sub-ring), a one-symbol alphabet, a non-power-of-two alphabet,
// lengths around the word boundary, and symbols that never occur.
func TestSymbolsMatchesAccess(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 700} {
		for _, sigma := range []uint32{1, 2, 3, 5, 8, 17, 100, 1000} {
			ns := randSeq(n, sigma, int64(n)+int64(sigma))
			if sigma > 4 {
				for i := range ns.data { // leave symbol 3 and the top one unused
					if ns.data[i] == 3 || ns.data[i] == sigma-1 {
						ns.data[i] = 0
					}
				}
			}
			s := matrix(ns)
			// Longer buffers than needed: only the first Len() entries
			// may be touched.
			dst, tmp := make([]uint32, n+2), make([]uint32, n+2)
			dst[n], dst[n+1] = 7, 7
			s.Symbols(dst, tmp)
			for i := 0; i < n; i++ {
				if want := s.Access(i); dst[i] != want {
					t.Fatalf("n=%d sigma=%d: Symbols[%d] = %d, want %d", n, sigma, i, dst[i], want)
				}
			}
			if dst[n] != 7 || dst[n+1] != 7 {
				t.Fatalf("n=%d sigma=%d: Symbols wrote past Len()", n, sigma)
			}
		}
	}
}

func TestEmptySequence(t *testing.T) {
	s := matrix(naiveSeq{nil, 4})
	if s.Len() != 0 {
		t.Fatal("empty Len")
	}
	if s.Rank(2, 0) != 0 || s.Count(2) != 0 {
		t.Fatal("empty ops misbehave")
	}
	called := false
	RangeDistinct(s, 0, 0, func(c uint32, rb, re int) bool { called = true; return true })
	if called {
		t.Fatal("RangeDistinct on empty emitted")
	}
}

func TestRangeDistinct(t *testing.T) {
	ns := randSeq(400, 9, 7)
	s := matrix(ns)
	for _, r := range [][2]int{{0, 400}, {13, 14}, {100, 250}, {0, 1}, {399, 400}, {200, 200}} {
		want := ns.distinct(r[0], r[1])
		got := map[uint32][2]int{}
		var order []uint32
		RangeDistinct(s, r[0], r[1], func(c uint32, rb, re int) bool {
			got[c] = [2]int{rb, re}
			order = append(order, c)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RangeDistinct(%v)=%v, want %v", r, got, want)
		}
		if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
			t.Fatalf("RangeDistinct order not increasing: %v", order)
		}
	}
}

// An emit that returns false after k symbols stops the descent there:
// exactly the k smallest distinct symbols of the range come out, in
// increasing order, each with the ranks Rank reports at the range ends.
func TestRangeDistinctStops(t *testing.T) {
	for _, sigma := range []uint32{1, 2, 5, 9, 64, 100} {
		ns := randSeq(400, sigma, int64(sigma)+3)
		s := matrix(ns)
		for _, r := range [][2]int{{0, 400}, {13, 90}, {250, 251}, {-5, 410}} {
			b, e := max(r[0], 0), min(r[1], 400)
			all := ns.distinct(b, e)
			syms := make([]uint32, 0, len(all))
			for c := range all {
				syms = append(syms, c)
			}
			sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
			for k := 1; k <= len(syms); k++ {
				var got []uint32
				RangeDistinct(s, r[0], r[1], func(c uint32, rb, re int) bool {
					if rb != s.Rank(c, b) || re != s.Rank(c, e) {
						t.Fatalf("sigma=%d range %v: symbol %d ranks [%d,%d), want [%d,%d)",
							sigma, r, c, rb, re, s.Rank(c, b), s.Rank(c, e))
					}
					got = append(got, c)
					return len(got) < k
				})
				if !reflect.DeepEqual(got, syms[:k]) {
					t.Fatalf("sigma=%d range %v stop at %d: got %v, want %v", sigma, r, k, got, syms[:k])
				}
			}
		}
	}
}

// Leaf callbacks must report occurrence-rank ranges: re-rb == count in range
// and the (rb+1)-th occurrence lands inside [b,e).
func TestTraverseLeafRanges(t *testing.T) {
	ns := randSeq(300, 6, 21)
	s := matrix(ns)
	b, e := 50, 220
	s.Traverse(b, e, func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if !leaf {
			return true
		}
		if lb >= le {
			t.Fatalf("leaf %d empty range", sym)
		}
		if got := ns.rank(sym, b); got != lb {
			t.Fatalf("leaf %d rb=%d, want %d", sym, lb, got)
		}
		if got := ns.rank(sym, e); got != le {
			t.Fatalf("leaf %d re=%d, want %d", sym, le, got)
		}
		pos := ns.sel(sym, lb+1)
		if pos < b || pos >= e {
			t.Fatalf("leaf %d first occurrence %d outside [%d,%d)", sym, pos, b, e)
		}
		return true
	})
}

// The full flag must be exact at leaves.
func TestTraverseFullFlag(t *testing.T) {
	ns := randSeq(256, 8, 5)
	s := matrix(ns)
	// Full range: every visited leaf must be full.
	s.Traverse(0, s.Len(), func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf && !full {
			t.Fatalf("leaf %d not full on whole-range traversal", node)
		}
		return true
	})
	// A leaf is full iff the range spans all its occurrences.
	b, e := 1, s.Len()-1
	s.Traverse(b, e, func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf {
			wantFull := lb == 0 && le == s.Count(sym)
			if full != wantFull {
				t.Fatalf("leaf %d full=%v, want %v", sym, full, wantFull)
			}
		}
		return true
	})
}

// Pruning a node must suppress exactly the symbols below it.
func TestTraversePruning(t *testing.T) {
	ns := randSeq(500, 16, 3)
	s := matrix(ns)
	var got []uint32
	s.Traverse(0, s.Len(), func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf {
			got = append(got, sym)
			return true
		}
		return true
	})
	all := len(got)
	got = got[:0]
	// Keep only syms < 8 by pruning nodes whose entire symbol range is
	// >= 8, which we detect via LeafID ancestry.
	low := map[NodeID]bool{}
	for c := uint32(0); c < 8; c++ {
		id := s.LeafID(c)
		for id >= 1 {
			low[id] = true
			id = id.Parent()
		}
	}
	s.Traverse(0, s.Len(), func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf {
			got = append(got, sym)
			return true
		}
		return low[node] // prune pure-high subtrees
	})
	for _, c := range got {
		if c >= 8 {
			t.Fatalf("pruned traversal leaked symbol %d", c)
		}
	}
	if len(got) >= all {
		t.Fatal("pruning did not reduce leaves")
	}
}

func TestLeafIDDistinctAndParented(t *testing.T) {
	s := matrix(randSeq(100, 13, 9))
	seen := map[NodeID]bool{}
	for c := uint32(0); c < 13; c++ {
		id := s.LeafID(c)
		if id < 1 || int(id) >= s.NumNodes() {
			t.Fatalf("LeafID(%d)=%d outside [1,%d)", c, id, s.NumNodes())
		}
		if seen[id] {
			t.Fatalf("duplicate leaf id %d", id)
		}
		seen[id] = true
		// Walking parents must reach the root.
		steps := 0
		for v := id; v != Root; v = v.Parent() {
			steps++
			if steps > 64 {
				t.Fatalf("leaf %d does not reach root", c)
			}
		}
	}
}

// Traverse must visit leaves at the ids LeafID reports.
func TestTraverseLeafIDsMatch(t *testing.T) {
	s := matrix(randSeq(200, 10, 31))
	s.Traverse(0, s.Len(), func(node NodeID, leaf bool, sym uint32, lb, le int, full bool) bool {
		if leaf && node != s.LeafID(sym) {
			t.Fatalf("leaf for %d visited at id %d, LeafID says %d", sym, node, s.LeafID(sym))
		}
		return true
	})
}

func TestMinAtLeast(t *testing.T) {
	ns := randSeq(400, 20, 23)
	s := matrix(ns)
	for _, r := range [][2]int{{0, 400}, {17, 230}, {100, 101}} {
		for x := uint32(0); x <= 21; x++ {
			var want uint32
			found := false
			for _, c := range ns.data[r[0]:r[1]] {
				if c >= x && (!found || c < want) {
					want, found = c, true
				}
			}
			got, ok := s.MinAtLeast(r[0], r[1], x)
			if ok != found || (found && got != want) {
				t.Fatalf("MinAtLeast(%v, %d)=(%d,%v), want (%d,%v)", r, x, got, ok, want, found)
			}
		}
	}
}

func TestMatrixNaiveAgreeQuick(t *testing.T) {
	f := func(seed int64, rawN uint16, rawSigma uint8) bool {
		n := int(rawN)%500 + 1
		sigma := uint32(rawSigma)%60 + 1
		ns := randSeq(n, sigma, seed)
		ma := matrix(ns)
		for i := 0; i < n; i += 7 {
			if ma.Access(i) != ns.access(i) {
				return false
			}
		}
		// Every 11th position, plus each word's last bit and the next
		// word's first, and Len() itself: where a rank crosses a word.
		var at []int
		for i := 0; i <= n; i += 11 {
			at = append(at, i)
		}
		for i := 63; i < n; i += 64 {
			at = append(at, i, i+1)
		}
		at = append(at, n)
		for c := uint32(0); c < sigma; c += 3 {
			if ma.Count(c) != ns.rank(c, n) {
				return false
			}
			for _, i := range at {
				if ma.Rank(c, i) != ns.rank(c, i) {
					return false
				}
				for _, e := range []int{i, i + 1, i + 64, n} {
					e = min(e, n)
					if rb, re := ma.RankRange(c, i, e); rb != ns.rank(c, i) || re != ns.rank(c, e) {
						return false
					}
				}
			}
		}
		// RangeCountBelow from and to those positions, against a count.
		for _, b := range at {
			for _, e := range []int{b, b + 1, b + 64, n} {
				e = min(e, n)
				x := uint32(b+e) % (sigma + 2)
				want := 0
				for _, c := range ns.data[b:e] {
					if c < x {
						want++
					}
				}
				if ma.RangeCountBelow(b, e, x) != want {
					return false
				}
			}
		}
		// RangeDistinct, run to the end and stopped after the first
		// symbol, against the naive distinct map.
		b, e := n/3, n-n/4
		want := ns.distinct(b, e)
		got := map[uint32][2]int{}
		RangeDistinct(ma, b, e, func(c uint32, rb, re int) bool {
			got[c] = [2]int{rb, re}
			return true
		})
		if !reflect.DeepEqual(got, want) {
			return false
		}
		first := 0
		RangeDistinct(ma, b, e, func(uint32, int, int) bool { first++; return false })
		return first == min(len(want), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Counts()[c] is the count of positions below symbol c: the C array.
func TestCountBelowIsCArray(t *testing.T) {
	ns := randSeq(300, 7, 2)
	counts := matrix(ns).Counts()
	if len(counts) != 8 {
		t.Fatalf("%d counts, want 8", len(counts))
	}
	acc := 0
	for c := uint32(0); c <= 7; c++ {
		if got := counts[c]; got != acc {
			t.Fatalf("Counts()[%d]=%d, want %d", c, got, acc)
		}
		if c < 7 {
			acc += ns.rank(c, 300)
		}
	}
}

func TestOutOfAlphabetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-alphabet symbol should panic")
		}
	}()
	NewMatrix([]uint32{5}, 5)
}

func BenchmarkMatrixBuild(b *testing.B) {
	ns := randSeq(1<<18, 1<<14, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMatrix(ns.data, ns.sigma)
	}
}

func BenchmarkMatrixRank(b *testing.B) {
	ns := randSeq(1<<18, 1024, 1)
	s := NewMatrix(ns.data, ns.sigma)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rank(uint32(i%1024), i%s.Len())
	}
}

func BenchmarkMatrixRangeDistinct(b *testing.B) {
	ns := randSeq(1<<18, 1024, 1)
	s := NewMatrix(ns.data, ns.sigma)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RangeDistinct(s, 0, 2048, func(c uint32, rb, re int) bool { return true })
	}
}

// PadNodes must cover exactly the leaves in [sigma, 2^width), each once.
func TestPadNodes(t *testing.T) {
	for _, sigma := range []uint32{1, 2, 3, 5, 8, 11, 16, 100} {
		ns := randSeq(50, sigma, int64(sigma))
		m := NewMatrix(ns.data, sigma)
		pads := m.PadNodes()
		// Expand every pad node to its leaf set.
		leafBase := m.NumNodes() / 2
		covered := map[int]int{}
		var expand func(id int)
		expand = func(id int) {
			if id >= leafBase {
				covered[id-leafBase]++
				return
			}
			expand(2 * id)
			expand(2*id + 1)
		}
		for _, p := range pads {
			expand(int(p))
		}
		for sym := 0; sym < leafBase; sym++ {
			want := 0
			if sym >= int(sigma) {
				want = 1
			}
			if covered[sym] != want {
				t.Fatalf("sigma=%d: padding coverage of leaf %d = %d, want %d",
					sigma, sym, covered[sym], want)
			}
		}
	}
}

// SymRange must agree with the symbol coverage observed by Traverse.
func TestSymRange(t *testing.T) {
	for _, sigma := range []uint32{1, 2, 5, 8, 13, 32} {
		s := matrix(randSeq(200, sigma, int64(sigma)+99))
		lo, hi := s.SymRange(Root)
		if lo != 0 || hi != sigma {
			t.Fatalf("sigma=%d: root SymRange=[%d,%d)", sigma, lo, hi)
		}
		for c := uint32(0); c < sigma; c++ {
			leaf := s.LeafID(c)
			lo, hi := s.SymRange(leaf)
			if lo != c || hi != c+1 {
				t.Fatalf("sigma=%d: leaf %d SymRange=[%d,%d)", sigma, c, lo, hi)
			}
			// Every ancestor must cover the leaf's symbol.
			for id := leaf.Parent(); id >= Root; id = id.Parent() {
				lo, hi := s.SymRange(id)
				if c < lo || c >= hi {
					t.Fatalf("ancestor %d of leaf %d covers [%d,%d)", id, c, lo, hi)
				}
			}
		}
	}
}

// Matrix padding nodes have empty symbol ranges.
func TestSymRangePadding(t *testing.T) {
	ns := randSeq(60, 5, 77) // width 3, padding symbols 5..7
	m := NewMatrix(ns.data, 5)
	for _, id := range m.PadNodes() {
		lo, hi := m.SymRange(id)
		if lo != hi {
			t.Fatalf("pad node %d has non-empty range [%d,%d)", id, lo, hi)
		}
	}
}

// RangeCountBelow must agree with naive counting.
func TestRangeCountBelow(t *testing.T) {
	for _, sigma := range []uint32{1, 2, 7, 16, 33} {
		ns := randSeq(400, sigma, int64(sigma)+55)
		ma := NewMatrix(ns.data, sigma)
		for _, r := range [][2]int{{0, 400}, {17, 230}, {100, 101}, {0, 1}, {50, 50}} {
			for x := uint32(0); x <= sigma+2; x++ {
				want := 0
				for _, c := range ns.data[r[0]:r[1]] {
					if c < x {
						want++
					}
				}
				if got := ma.RangeCountBelow(r[0], r[1], x); got != want {
					t.Fatalf("sigma=%d range=%v x=%d: %d, want %d", sigma, r, x, got, want)
				}
			}
		}
	}
}
