// Package thompson implements the classical Thompson construction of an
// NFA from a regular expression, followed by ε-transition removal — the
// automaton the traditional product-graph RPQ algorithm uses (paper §3.2).
// The BFS baseline evaluates RPQs with it; the ring engine uses the
// Glushkov construction instead (§3.3), and tests cross-check the two.
package thompson

import (
	"fmt"
	"sort"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/pathexpr"
)

// Edge is a labelled transition.
type Edge struct {
	Sym uint32
	To  int32
}

// NFA is an ε-free automaton over symbol ids.
type NFA struct {
	// NumStates is the state count; states are 0..NumStates-1.
	NumStates int
	// Initial is the start state.
	Initial int32
	// Final marks accepting states.
	Final []bool
	// Trans[q] lists the outgoing transitions of q, sorted by (Sym, To).
	Trans [][]Edge
	// Rev[q] lists the incoming transitions of q as (Sym, From) pairs,
	// for backward traversals.
	Rev [][]Edge
}

// Build constructs the Thompson NFA of n, resolves predicate occurrences
// via ids (unresolvable ones become never-matching transitions), removes
// ε-transitions, and returns the result.
func Build(n pathexpr.Node, ids glushkov.SymbolIDs) *NFA {
	c := &constructor{ids: ids}
	frag := c.walk(n)
	nStates := c.next

	// ε-closure per state.
	closure := make([][]int32, nStates)
	for q := int32(0); q < int32(nStates); q++ {
		seen := make(map[int32]bool)
		stack := []int32{q}
		seen[q] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range c.eps[x] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		cl := make([]int32, 0, len(seen))
		for x := range seen {
			cl = append(cl, x)
		}
		sort.Slice(cl, func(i, j int) bool { return cl[i] < cl[j] })
		closure[q] = cl
	}

	nfa := &NFA{
		NumStates: nStates,
		Initial:   frag.start,
		Final:     make([]bool, nStates),
		Trans:     make([][]Edge, nStates),
		Rev:       make([][]Edge, nStates),
	}
	// A state accepts if its closure reaches the fragment's accept state.
	for q := 0; q < nStates; q++ {
		for _, x := range closure[q] {
			if x == frag.accept {
				nfa.Final[q] = true
			}
		}
	}
	// q --c--> r in the ε-free NFA iff some x ∈ closure(q) has x --c--> r.
	for q := 0; q < nStates; q++ {
		set := map[Edge]bool{}
		for _, x := range closure[q] {
			for _, t := range c.sym[x] {
				if t.Sym != glushkov.NoSymbol {
					set[t] = true
				}
			}
		}
		edges := make([]Edge, 0, len(set))
		for t := range set {
			edges = append(edges, t)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Sym != edges[j].Sym {
				return edges[i].Sym < edges[j].Sym
			}
			return edges[i].To < edges[j].To
		})
		nfa.Trans[q] = edges
		for _, t := range edges {
			nfa.Rev[t.To] = append(nfa.Rev[t.To], Edge{t.Sym, int32(q)})
		}
	}
	for q := range nfa.Rev {
		edges := nfa.Rev[q]
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Sym != edges[j].Sym {
				return edges[i].Sym < edges[j].Sym
			}
			return edges[i].To < edges[j].To
		})
	}
	return nfa
}

type frag struct {
	start, accept int32
}

type constructor struct {
	ids  glushkov.SymbolIDs
	next int
	eps  [][]int32
	sym  [][]Edge
}

func (c *constructor) state() int32 {
	c.eps = append(c.eps, nil)
	c.sym = append(c.sym, nil)
	c.next++
	return int32(c.next - 1)
}

func (c *constructor) epsEdge(from, to int32) {
	c.eps[from] = append(c.eps[from], to)
}

func (c *constructor) symEdge(from int32, s uint32, to int32) {
	c.sym[from] = append(c.sym[from], Edge{s, to})
}

// walk builds the classical two-state-per-operator fragments.
func (c *constructor) walk(n pathexpr.Node) frag {
	switch x := n.(type) {
	case pathexpr.Sym:
		s, a := c.state(), c.state()
		id, ok := c.ids(x)
		if !ok {
			id = glushkov.NoSymbol
		}
		c.symEdge(s, id, a)
		return frag{s, a}
	case pathexpr.Eps:
		s, a := c.state(), c.state()
		c.epsEdge(s, a)
		return frag{s, a}
	case pathexpr.Concat:
		f1 := c.walk(x.L)
		f2 := c.walk(x.R)
		c.epsEdge(f1.accept, f2.start)
		return frag{f1.start, f2.accept}
	case pathexpr.Alt:
		f1 := c.walk(x.L)
		f2 := c.walk(x.R)
		s, a := c.state(), c.state()
		c.epsEdge(s, f1.start)
		c.epsEdge(s, f2.start)
		c.epsEdge(f1.accept, a)
		c.epsEdge(f2.accept, a)
		return frag{s, a}
	case pathexpr.Star:
		f := c.walk(x.X)
		s, a := c.state(), c.state()
		c.epsEdge(s, f.start)
		c.epsEdge(s, a)
		c.epsEdge(f.accept, f.start)
		c.epsEdge(f.accept, a)
		return frag{s, a}
	case pathexpr.Plus:
		f := c.walk(x.X)
		s, a := c.state(), c.state()
		c.epsEdge(s, f.start)
		c.epsEdge(f.accept, f.start)
		c.epsEdge(f.accept, a)
		return frag{s, a}
	case pathexpr.Opt:
		f := c.walk(x.X)
		s, a := c.state(), c.state()
		c.epsEdge(s, f.start)
		c.epsEdge(s, a)
		c.epsEdge(f.accept, a)
		return frag{s, a}
	default:
		panic(fmt.Sprintf("thompson: unknown node %T", n))
	}
}

// MatchesEmpty reports whether the automaton accepts the empty word.
func (n *NFA) MatchesEmpty() bool { return n.Final[n.Initial] }
