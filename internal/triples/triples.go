// Package triples provides the dictionary-encoded labeled graph underlying
// the ring (paper §3.1 and §5 "Index construction"): triples (s,p,o) over
// integer ids, with the graph completion G↔ that materialises a reverse
// edge with inverse label p̂ = p + |P| for every edge labeled p.
package triples

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Triple is a dictionary-encoded edge s --p--> o.
type Triple struct {
	S, P, O uint32
}

// Dict maps strings to dense ids in insertion order. The one exception
// is Graph.NumberByLocality, which renumbers a freshly built graph's node
// dictionary once, before anything reads it. Past that it is
// append-only and safe for one writer interning concurrently with any
// number of readers: Name and NamesView are lock-free against an
// atomically published slice header (ids never disappear or change), while
// Lookup/Intern synchronise on an internal mutex. This is what lets
// live updates intern new node names while queries pinned to an older
// snapshot keep resolving theirs.
type Dict struct {
	mu    sync.RWMutex
	names atomic.Pointer[[]string]
	ids   map[string]uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{ids: make(map[string]uint32)}
	d.names.Store(new([]string))
	return d
}

// Intern returns the id of name, assigning the next id on first sight.
func (d *Dict) Intern(name string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[name]; ok {
		return id
	}
	cur := *d.names.Load()
	id := uint32(len(cur))
	// Appending may write one slot past the published length into a
	// shared backing array; readers only index below their header's
	// length, so the new header is published atomically afterwards.
	next := append(cur, name)
	d.names.Store(&next)
	d.ids[name] = id
	return id
}

// Lookup returns the id of name if present.
func (d *Dict) Lookup(name string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[name]
	d.mu.RUnlock()
	return id, ok
}

// Name returns the string for id.
func (d *Dict) Name(id uint32) string { return (*d.names.Load())[id] }

// Len reports the number of interned strings.
func (d *Dict) Len() int { return len(*d.names.Load()) }

// NamesView returns the current names in id order. The slice is an
// immutable snapshot: later Interns never mutate entries below its
// length.
func (d *Dict) NamesView() []string {
	v := *d.names.Load()
	return v[:len(v):len(v)]
}

// SizeBytes estimates the dictionary footprint.
func (d *Dict) SizeBytes() int {
	sz := 0
	for _, n := range d.NamesView() {
		sz += len(n) + 16 + // names slice entry
			len(n) + 24 // map key and value, approximate
	}
	return sz + 48
}

// Key names the triple component a SortBy pass orders by.
type Key int

const (
	ByS Key = iota
	ByP
	ByO
)

func (k Key) of(t Triple) uint32 {
	switch k {
	case ByS:
		return t.S
	case ByP:
		return t.P
	}
	return t.O
}

// SortBy is one stable counting-sort pass: it writes src into dst
// (same length, not overlapping) ordered by the key component, equal
// keys keeping their src order, in O(n + σ) with σ = len(c)-1 the size
// of the key's id space. On return c is the key's partition array:
// c[x] counts the triples with key < x, and c[σ] = n. A key outside
// [0, σ) panics before anything is written.
//
// Sorting by several components is a sequence of passes, least
// significant first; since the ring's three orders are rotations of
// one another, each is one more pass over the previous (ring.FromTriples).
func SortBy(dst, src []Triple, key Key, c []int) {
	sigma := len(c) - 1
	clear(c)
	for _, t := range src {
		k := key.of(t)
		if int(k) >= sigma {
			panic(fmt.Sprintf("triples: id %d of triple (%d,%d,%d) outside its id space of %d; did the builder intern all names?",
				k, t.S, t.P, t.O, sigma))
		}
		c[k+1]++
	}
	for x := 0; x < sigma; x++ {
		c[x+1] += c[x]
	}
	// Scattering advances c[k] from the start of k's run to its end,
	// which is the start of k+1's: shift back by one afterwards.
	for _, t := range src {
		k := key.of(t)
		dst[c[k]] = t
		c[k]++
	}
	copy(c[1:], c[:sigma])
	c[0] = 0
}

// Builder accumulates string triples and freezes them into a Graph.
type Builder struct {
	nodes *Dict
	preds *Dict
	ts    []Triple
}

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder {
	return &Builder{nodes: NewDict(), preds: NewDict()}
}

// Add inserts the triple (s, p, o); duplicates collapse in Build
// (graphs are edge sets).
func (b *Builder) Add(s, p, o string) {
	b.ts = append(b.ts, Triple{b.nodes.Intern(s), b.preds.Intern(p), b.nodes.Intern(o)})
}

// AddIDs inserts a pre-encoded triple; callers must intern consistently.
func (b *Builder) AddIDs(s, p, o uint32) {
	b.ts = append(b.ts, Triple{s, p, o})
}

// Nodes exposes the node dictionary (shared with the built graph).
func (b *Builder) Nodes() *Dict { return b.nodes }

// Preds exposes the predicate dictionary (shared with the built graph).
func (b *Builder) Preds() *Dict { return b.preds }

// Build completes the graph: for every triple (s,p,o) the inverse
// (o, p+|P|, s) is added, doubling edges and predicates (§5). The
// completed list is sorted by (s,p,o) with three SortBy passes (o, then
// p, then s: O(n + σ) each) and duplicate Adds, now adjacent, are
// dropped. That order and that deduplication are a contract: the
// workload generators sample Graph.Triples by index, so changing either
// changes every generated query log. The builder must not be used
// afterwards.
func (b *Builder) Build() *Graph {
	np := uint32(b.preds.Len())
	g := &Graph{
		Nodes:    b.nodes,
		Preds:    b.preds,
		NumPreds: np,
	}
	ts := make([]Triple, 0, 2*len(b.ts))
	for _, t := range b.ts {
		ts = append(ts, t, Triple{t.O, t.P + np, t.S})
	}
	b.ts = nil
	tmp := make([]Triple, len(ts))
	c := make([]int, max(g.NumNodes(), int(2*np))+1)
	SortBy(tmp, ts, ByO, c[:g.NumNodes()+1])
	SortBy(ts, tmp, ByP, c[:2*np+1])
	SortBy(tmp, ts, ByS, c[:g.NumNodes()+1])
	uniq := tmp[:0]
	for _, t := range tmp {
		if len(uniq) == 0 || t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	g.Triples = uniq
	return g
}

// NumberByLocality renumbers the nodes so that the nodes a hub reaches
// carry consecutive ids, in the order a frontier meets them. Roots are
// taken in decreasing completed degree (the number of triples a node is
// the subject of, its in-degree plus its out-degree), ties by id; from
// each root not yet numbered, a breadth-first search over the completed
// graph numbers the nodes in dequeue order. A node's neighbours are
// enqueued in decreasing degree, ties in the order of their triples in
// g.Triples: after Build that is (s,p,o), so the nodes reached over one
// predicate get adjacent ids. The numbering is a function of the input
// alone. It is linear: counting sorts of the roots and of the triples
// by degree, then one FIFO pass.
//
// The node dictionary and the triples' subjects and objects are
// rewritten in place, and the triples lose their (s,p,o) order. It
// serves the ring: with the hubs at the low ids and what one step
// reaches in one id interval, a frontier's L_s descents share wavelet
// subtrees. The graph's dictionary must not have been read
// concurrently yet.
func (g *Graph) NumberByLocality() {
	nv := g.NumNodes()
	ts := g.Triples
	// off[v] is where v's neighbours start in adj; v's degree is
	// off[v+1]-off[v].
	off := make([]uint32, nv+1)
	for _, t := range ts {
		off[t.S+1]++
	}
	maxDeg := uint32(0)
	for v := range nv {
		maxDeg = max(maxDeg, off[v+1])
		off[v+1] += off[v]
	}
	// byRank is a stable counting sort of the indices [0, len(dst)) by
	// decreasing degree of node(i): ties keep their index order.
	cnt := make([]uint32, maxDeg+2)
	byRank := func(dst []uint32, node func(i int) uint32) {
		rank := func(i int) uint32 { v := node(i); return maxDeg - (off[v+1] - off[v]) }
		clear(cnt)
		for i := range dst {
			cnt[rank(i)+1]++
		}
		for k := range maxDeg + 1 {
			cnt[k+1] += cnt[k]
		}
		for i := range dst {
			k := rank(i)
			dst[cnt[k]] = uint32(i)
			cnt[k]++
		}
	}
	roots := make([]uint32, nv)
	byRank(roots, func(v int) uint32 { return uint32(v) })
	byDeg := make([]uint32, len(ts))
	byRank(byDeg, func(i int) uint32 { return ts[i].O })
	adj := make([]uint32, len(ts))
	next := make([]uint32, nv)
	copy(next, off)
	for _, i := range byDeg {
		t := ts[i]
		adj[next[t.S]] = t.O
		next[t.S]++
	}

	// The FIFO queue is the new order: a node's new id is the position
	// it was enqueued at. byDeg is dead and holds the queue; next holds
	// the new ids.
	const unnumbered = ^uint32(0)
	newID := next
	for v := range newID {
		newID[v] = unnumbered
	}
	queue := byDeg[:0]
	for _, r := range roots {
		if newID[r] != unnumbered {
			continue
		}
		newID[r] = uint32(len(queue))
		queue = append(queue, r)
		for head := len(queue) - 1; head < len(queue); head++ {
			v := queue[head]
			for _, o := range adj[off[v]:off[v+1]] {
				if newID[o] == unnumbered {
					newID[o] = uint32(len(queue))
					queue = append(queue, o)
				}
			}
		}
	}

	d := g.Nodes
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.NamesView()
	names := make([]string, nv)
	for v, name := range old {
		names[newID[v]] = name
		d.ids[name] = newID[v]
	}
	d.names.Store(&names)
	for i := range ts {
		t := &ts[i]
		t.S, t.O = newID[t.S], newID[t.O]
	}
}

// Graph is a completed, dictionary-encoded graph G↔.
type Graph struct {
	// Triples lists the 2n completed edges sorted by (s,p,o), as Build
	// leaves them (NumberByLocality renumbers and reorders them; a
	// database's graph keeps none).
	Triples []Triple
	// Nodes maps node names; ids in [0, NumNodes()).
	Nodes *Dict
	// Preds maps original predicate names; completed predicate ids are
	// [0, 2·NumPreds) where id+NumPreds is the inverse of id.
	Preds *Dict
	// NumPreds is the original predicate count |P|.
	NumPreds uint32
}

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return g.Nodes.Len() }

// NumCompletedPreds reports |Σ↔| = 2|P|.
func (g *Graph) NumCompletedPreds() uint32 { return 2 * g.NumPreds }

// Len reports the number of completed edges (2n).
func (g *Graph) Len() int { return len(g.Triples) }

// Inverse maps a completed predicate id to its inverse.
func (g *Graph) Inverse(p uint32) uint32 {
	if p < g.NumPreds {
		return p + g.NumPreds
	}
	return p - g.NumPreds
}

// PredID resolves a (name, inverse) predicate occurrence to its completed
// id.
func (g *Graph) PredID(name string, inverse bool) (uint32, bool) {
	id, ok := g.Preds.Lookup(name)
	if !ok {
		return 0, false
	}
	if inverse {
		id += g.NumPreds
	}
	return id, true
}

// PredName renders a completed predicate id, prefixing inverses with '^'.
func (g *Graph) PredName(p uint32) string {
	if p >= g.NumPreds {
		return "^" + g.Preds.Name(p-g.NumPreds)
	}
	return g.Preds.Name(p)
}

// String renders a triple for debugging.
func (g *Graph) String(t Triple) string {
	return fmt.Sprintf("%s -%s-> %s", g.Nodes.Name(t.S), g.PredName(t.P), g.Nodes.Name(t.O))
}
