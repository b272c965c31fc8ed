// Package glushkov builds the Glushkov position automaton of a 2RPQ
// regular expression and simulates it bit-parallelly (paper §3.3).
//
// The Glushkov NFA of an expression with m symbol occurrences has exactly
// m+1 states (the initial state 0 plus one per occurrence), no
// ε-transitions, and — crucially for the RPQ algorithm — all transitions
// into a state carry that state's label. Fact 1 of the paper follows:
// a step depends on the state set X only through a table and on the
// symbol c only through the mask B[c]. The RPQ traversal runs backwards
// (§4), so the simulation here is the reverse one, D ← T'[D & B[c]]
// (Eq. 2). This lets the ring's wavelet trees filter candidate
// predicates with B alone (§4.1) while the automaton step is a single
// table lookup.
//
// Engine simulates automata with at most 64 states (m ≤ 63) using uint64
// state sets and a vertically-split reverse table (the paper's d-bit
// subtable decomposition, default d=8, full table when m+1 ≤ 16), and
// Compile turns it into the Stepper the traversal kernel calls. Wide
// handles arbitrary m with multiword masks, reproducing the O(m/w)
// slowdown of the general case instead of failing.
package glushkov

import (
	"fmt"

	"ringrpq/internal/pathexpr"
)

// NoSymbol is the label assigned to positions whose predicate does not
// occur in the graph; no data symbol ever equals it, so such transitions
// never fire.
const NoSymbol = ^uint32(0)

// Class is a symbol class labelling one automaton position: it matches
// every symbol of one direction of the completed alphabet except the
// excluded ids (negated property sets, §6). Directions follow the
// completion convention: ids below half the alphabet are forward.
type Class struct {
	// Inverse selects the inverse half of the alphabet.
	Inverse bool
	// Excl lists the excluded completed ids, sorted.
	Excl []uint32
}

// Matches reports whether completed id c (from an alphabet of
// numCompleted ids) belongs to the class.
func (cl *Class) Matches(c, numCompleted uint32) bool {
	if (c >= numCompleted/2) != cl.Inverse {
		return false
	}
	for _, x := range cl.Excl {
		if x == c {
			return false
		}
		if x > c {
			break
		}
	}
	return true
}

// Automaton is the position automaton: states 0..M where 0 is initial.
type Automaton struct {
	// M is the number of positions (symbol occurrences).
	M int
	// Nullable reports whether the language contains the empty word.
	Nullable bool
	// Syms[j-1] is the symbol labelling position j (all transitions into
	// state j carry this label); NoSymbol for class positions.
	Syms []uint32
	// Classes[j-1] is non-nil when position j is labelled by a symbol
	// class rather than a single symbol.
	Classes []*Class
	// Follow[i] lists the positions that may follow state i; Follow[0]
	// is the first set.
	Follow [][]int32
	// Last lists the positions that may end a word.
	Last []int32
}

// HasClasses reports whether any position carries a symbol class.
func (a *Automaton) HasClasses() bool {
	for _, c := range a.Classes {
		if c != nil {
			return true
		}
	}
	return false
}

// SymbolIDs maps a parsed predicate occurrence to its integer symbol.
// The boolean reports whether the predicate exists at all; unknown
// predicates become NoSymbol positions.
type SymbolIDs func(s pathexpr.Sym) (uint32, bool)

// Build constructs the Glushkov automaton of n, labelling positions via
// ids. Construction is the classical first/last/follow recursion, O(m²)
// worst case.
func Build(n pathexpr.Node, ids SymbolIDs) *Automaton {
	b := &builder{ids: ids}
	f, l, nullable := b.walk(n, ids)
	return &Automaton{
		M:        len(b.syms),
		Nullable: nullable,
		Syms:     b.syms,
		Classes:  b.classes,
		Follow:   append([][]int32{f}, b.follow...),
		Last:     l,
	}
}

type builder struct {
	ids     SymbolIDs
	syms    []uint32
	classes []*Class
	follow  [][]int32 // follow[j-1] = follow set of position j
}

// walk returns (first, last, nullable) of the subtree.
func (b *builder) walk(n pathexpr.Node, ids SymbolIDs) ([]int32, []int32, bool) {
	switch x := n.(type) {
	case pathexpr.Sym:
		id, ok := ids(x)
		if !ok {
			id = NoSymbol
		}
		b.syms = append(b.syms, id)
		b.classes = append(b.classes, nil)
		b.follow = append(b.follow, nil)
		p := int32(len(b.syms))
		return []int32{p}, []int32{p}, false
	case pathexpr.NegSet:
		cl := &Class{Inverse: x.Inverse}
		for _, name := range x.Names {
			// Resolve each excluded name in the set's direction; names
			// absent from the graph exclude no actual edge.
			if id, ok := ids(pathexpr.Sym{Name: name, Inverse: x.Inverse}); ok {
				cl.Excl = append(cl.Excl, id)
			}
		}
		sortU32(cl.Excl)
		b.syms = append(b.syms, NoSymbol)
		b.classes = append(b.classes, cl)
		b.follow = append(b.follow, nil)
		p := int32(len(b.syms))
		return []int32{p}, []int32{p}, false
	case pathexpr.Eps:
		return nil, nil, true
	case pathexpr.Concat:
		f1, l1, n1 := b.walk(x.L, ids)
		f2, l2, n2 := b.walk(x.R, ids)
		for _, i := range l1 {
			b.follow[i-1] = union(b.follow[i-1], f2)
		}
		f := f1
		if n1 {
			f = union(f1, f2)
		}
		l := l2
		if n2 {
			l = union(l2, l1)
		}
		return f, l, n1 && n2
	case pathexpr.Alt:
		f1, l1, n1 := b.walk(x.L, ids)
		f2, l2, n2 := b.walk(x.R, ids)
		return union(f1, f2), union(l1, l2), n1 || n2
	case pathexpr.Star:
		f, l, _ := b.walk(x.X, ids)
		for _, i := range l {
			b.follow[i-1] = union(b.follow[i-1], f)
		}
		return f, l, true
	case pathexpr.Plus:
		f, l, nullable := b.walk(x.X, ids)
		for _, i := range l {
			b.follow[i-1] = union(b.follow[i-1], f)
		}
		return f, l, nullable
	case pathexpr.Opt:
		f, l, _ := b.walk(x.X, ids)
		return f, l, true
	default:
		panic(fmt.Sprintf("glushkov: unknown node %T", n))
	}
}

// union merges two sorted position lists without duplicates.
func union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// sortU32 sorts a small id slice in place.
func sortU32(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Alphabet returns the distinct non-NoSymbol labels used by the automaton.
func (a *Automaton) Alphabet() []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, c := range a.Syms {
		if c != NoSymbol && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
