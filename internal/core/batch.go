package core

import (
	"cmp"
	"slices"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// The frontier-batched traversal: instead of expanding one (node,
// states) frontier entry at a time — each paying its own root-to-leaf
// descent of L_p and L_s — the BFS drains a whole level per iteration.
// The frontier is converted to sorted disjoint L_p ranges (adjacent
// object ranges with equal state masks coalesce), part 1 runs as one
// multi-range wavelet descent that splits the item list at each node,
// the per-predicate L_s ranges it produces are accumulated (in position
// order, as its leaves arrive) and coalesced, and part 2 runs as one
// more multi-range descent. The
// B[v]/D[v] pruning of §4.1–4.2 applies per item at every node, so the
// visited product subgraph — and with it the Theorem 4.1 work bound —
// is exactly the one the item-at-a-time traversal explores; only the
// shared top-of-tree descents are amortised across the frontier.
//
// Under Options.Limit, one descent would reach the results still owed
// in subject-id order across every range; instead a level's part 2
// descends first the fewest result-bearing ranges that can cover that
// count (splitOwed), and the rest only if the limit was not reached.

// batchCutoff is the frontier size below which a level is expanded with
// the classic per-item descent: the batched machinery (sorting, item
// splitting) only pays for itself once several ranges share the top of
// the tree.
const batchCutoff = 4

// mergeFrontier sorts a queued frontier by node and merges duplicates
// in place (the per-item expansion below the cutoff may rediscover a
// node within one level), so each node carries the union of its level's
// states. It returns the shortened slice.
func mergeFrontier(q []queueItem) []queueItem {
	slices.SortFunc(q, func(a, b queueItem) int { return cmp.Compare(a.node, b.node) })
	out := q[:0]
	for _, it := range q {
		if n := len(out); n > 0 && out[n-1].node == it.node {
			out[n-1].d |= it.d
			continue
		}
		out = append(out, it)
	}
	return out
}

// appendRangeItems appends a merged frontier to dst as r's sorted
// disjoint L_p range items: object ranges ascend with the node id, so
// node order is range order, and adjacent ranges with the same state
// mask coalesce into one item. Nodes beyond r's id space (overlay-only
// nodes) and nodes without in-edges in r add none.
func appendRangeItems(dst []wavelet.RangeMask, r *ring.Ring, level []queueItem) []wavelet.RangeMask {
	for _, it := range level {
		if int(it.node) >= r.NumNodes {
			continue
		}
		b, end := r.ObjectRange(it.node)
		if b >= end {
			continue
		}
		if n := len(dst); n > 0 && dst[n-1].E == b && dst[n-1].Mask == it.d {
			dst[n-1].E = end
			continue
		}
		dst = append(dst, wavelet.RangeMask{B: b, E: end, Mask: it.d})
	}
	return dst
}

// stepMany is the batched §4 step over a whole level of one ring:
// part 1 over L_p in one multi-range descent (B[v] pruning per item),
// part 2 over L_s likewise, part 3 via arrive.
func (e *Engine) stepMany(eng *glushkov.Engine, w *ringWork, items []wavelet.RangeMask, emit EmitFunc) error {
	if len(items) == 0 {
		return nil
	}
	lsItems := e.lsItems[:0]
	negFwd, negInv := eng.NegClassBits()
	half := e.numPreds / 2
	var failure error
	w.r.Lp.TraverseMany(items, func(node wavelet.NodeID, leaf bool, p uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		e.stats.WaveletVisits++
		if !leaf {
			// Part 1 pruning (Fact 1 via the aggregated B[v]), per item;
			// negated property sets contribute per node direction exactly
			// as on the unbatched path.
			bmask := w.bArr[node]
			cb, haveCB := uint64(0), false
			k := 0
			for _, it := range its {
				if it.Mask&bmask == 0 {
					if negFwd|negInv == 0 {
						continue
					}
					if !haveCB {
						lo, hi := w.r.Lp.SymRange(node)
						if lo < half {
							cb |= negFwd
						}
						if hi > half {
							cb |= negInv
						}
						haveCB = true
					}
					if it.Mask&cb == 0 {
						continue
					}
				}
				its[k] = it
				k++
			}
			return k
		}
		if err := e.checkDeadline(); err != nil {
			failure = err
			return 0
		}
		// Leaf work is per item, so the visit stat stays comparable with
		// the per-item descent (one visit per frontier item per leaf).
		e.stats.WaveletVisits += len(its) - 1
		bp := e.st.PredMask(p)
		cp := w.r.Cp[p]
		for _, it := range its {
			d := it.Mask & bp
			if d == 0 {
				continue
			}
			e.stats.ProductEdges++
			// The NFA transition is uniform across the item's range
			// (Fact 1); the rank range plus C_p is the L_s source range
			// (Eqs. 4–5).
			d2 := e.st.StepBack(d)
			if d2 == 0 {
				continue
			}
			b, end := cp+it.B, cp+it.E
			if n := len(lsItems); n > 0 && lsItems[n-1].E == b && lsItems[n-1].Mask == d2 {
				lsItems[n-1].E = end
				continue
			}
			lsItems = append(lsItems, wavelet.RangeMask{B: b, E: end, Mask: d2})
		}
		return 0
	})
	e.lsItems = lsItems // keep the grown scratch buffer
	if failure != nil {
		return failure
	}
	return e.part2Many(eng, w, lsItems, emit)
}

// part2Many expands the level's accumulated L_s ranges: distinct
// subjects with unvisited states arrive with the union of the states
// that reached them (§4.2–4.3) — once per level, or once per descent
// when splitOwed splits it in two.
func (e *Engine) part2Many(eng *glushkov.Engine, w *ringWork, lsItems []wavelet.RangeMask, emit EmitFunc) error {
	if len(lsItems) == 0 {
		return nil
	}
	// Part 1's descent reaches its leaves in predicate order and each
	// leaf's items in rank order (TestTraverseManyLeafOrder), so the
	// C_p+rank ranges are already in position order.
	first, rest := e.splitOwed(eng.Init, lsItems)
	if err := e.descendLs(eng, w, first, emit); err != nil || len(rest) == 0 {
		return err
	}
	return e.descendLs(eng, w, rest, emit)
}

// splitOwed divides a limited level's sorted L_s ranges. Only ranges
// whose mask carries the initial state can report results, each at most
// its length. When those cover more positions than the results still
// owed, first is the shortest position-ordered run of them covering it
// (fewest ranges, then most positions: denser subjects share more of
// the descent) and rest every other range, in order; else first is all.
func (e *Engine) splitOwed(init uint64, lsItems []wavelet.RangeMask) (first, rest []wavelet.RangeMask) {
	if e.limit == 0 {
		return lsItems, nil
	}
	owed := e.limit - e.stats.Results
	// Sliding window: once any run covers owed, [lo, hi] is the shortest
	// ending at hi, holding n result-bearing ranges and sum positions.
	cover, sum, n, lo := 0, 0, 0, 0
	bestLo, bestHi, bestN, bestSum := 0, -1, 0, 0
	for hi, it := range lsItems {
		if it.Mask&init == 0 {
			continue
		}
		cover += it.E - it.B
		sum += it.E - it.B
		n++
		for ; lo < hi; lo++ {
			if l := lsItems[lo]; l.Mask&init != 0 {
				if sum-(l.E-l.B) < owed {
					break
				}
				sum -= l.E - l.B
				n--
			}
		}
		if sum >= owed && (bestHi < 0 || n < bestN || n == bestN && sum > bestSum) {
			bestLo, bestHi, bestN, bestSum = lo, hi, n, sum
		}
	}
	if cover <= owed {
		return lsItems, nil
	}
	first = e.lsFirst[:0]
	k := 0
	for i, it := range lsItems {
		if i >= bestLo && i <= bestHi && it.Mask&init != 0 {
			first = append(first, it)
		} else {
			lsItems[k] = it
			k++
		}
	}
	e.lsFirst = first // keep the grown scratch buffer
	return first, lsItems[:k]
}

// descendLs runs one batched L_s descent over sorted disjoint ranges; a
// leaf drops the items whose occurrences are all tombstoned
// (tombRanks.leafMask).
func (e *Engine) descendLs(eng *glushkov.Engine, w *ringWork, lsItems []wavelet.RangeMask, emit EmitFunc) error {
	var tomb *tombRanks
	if dels := e.ov.Dels(); len(dels) > 0 {
		w.tomb.sync(w.r, dels)
		if len(w.tomb.keys) > 0 {
			tomb = &w.tomb
		}
	}
	var failure error
	w.r.Ls.TraverseMany(lsItems, func(node wavelet.NodeID, leaf bool, s uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		e.stats.WaveletVisits++
		e.stats.SubjectVisits++
		visited := w.dNode.Get(int(node)) | e.base
		if !leaf {
			// Prune items whose subjects below were all already visited
			// with every state they carry.
			k := 0
			for _, it := range its {
				if it.Mask&^visited != 0 {
					its[k] = it
					k++
				}
			}
			return k
		}
		if err := e.checkDeadline(); err != nil {
			failure = err
			return 0
		}
		var all uint64
		if tomb != nil {
			all = tomb.leafMask(s, its)
		} else {
			for _, it := range its {
				all |= it.Mask
			}
		}
		failure = e.arrive(eng, s, all, all&^visited, emit)
		return 0
	})
	return failure
}
