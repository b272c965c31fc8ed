package load

import (
	"slices"
	"time"
)

// refWork is fixed work of the kind rpqd does on a graph pattern — a
// breadth-first walk over a megabyte of adjacency with a bitmap of the
// nodes seen, a sort of what it reached and a map built from that —
// written here, over data of its own, so that no commit of the program
// under test changes it. A client connection runs it once after every
// reply of a pass metered by it (meter.go); how long it takes then,
// against how long it takes on a quiet box, is how slow the box is
// running at that moment.
type refWork struct {
	off, adj []uint32 // a fixed random graph, 8 edges a node
	seen     []uint64
	queue    []uint32
	src      uint32
	// took is how long each call since the last reset took, µs.
	took []float64
}

// refWorkReach is how many nodes one call walks to; with it a call
// takes about a third of a millisecond, a thirtieth of a pattern op.
const refWorkReach = 2500

func newRefWork() *refWork {
	const nodes, degree = 1 << 15, 8
	w := &refWork{off: make([]uint32, nodes+1), adj: make([]uint32, nodes*degree), seen: make([]uint64, nodes/64)}
	x := uint64(88172645463325252) // xorshift64
	for i := range w.adj {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w.adj[i] = uint32(x % nodes)
	}
	for i := range w.off {
		w.off[i] = uint32(i * degree)
	}
	return w
}

// run does the work once, from the next source node, and records how
// long it took by the wall clock: the box's slowness shows there whether
// it comes as slower cycles, colder caches or time taken away.
func (w *refWork) run() {
	start := time.Now()
	clear(w.seen)
	w.src = (w.src*2654435761 + 1) % uint32(len(w.off)-1)
	q := append(w.queue[:0], w.src)
	w.seen[w.src/64] |= 1 << (w.src % 64)
	for head := 0; head < len(q) && len(q) < refWorkReach; head++ {
		v := q[head]
		for _, u := range w.adj[w.off[v]:w.off[v+1]] {
			if w.seen[u/64]&(1<<(u%64)) == 0 {
				w.seen[u/64] |= 1 << (u % 64)
				q = append(q, u)
			}
		}
	}
	w.queue = q
	reached := slices.Clone(q)
	slices.Sort(reached)
	rank := make(map[uint32]int, 64)
	for i, v := range reached {
		rank[v] = i
	}
	if len(rank) != len(reached) {
		panic("refWork: a node was reached twice")
	}
	w.took = append(w.took, float64(time.Since(start))/1e3)
}
