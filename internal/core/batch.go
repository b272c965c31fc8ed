package core

import (
	"cmp"
	"slices"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/lazy"
	"ringrpq/internal/obs"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// The frontier-batched traversal: instead of expanding one (node,
// states) frontier entry at a time — each paying its own root-to-leaf
// descent of L_p and L_s — the BFS drains a whole level per iteration.
// The frontier is converted to sorted disjoint L_p ranges (adjacent
// object ranges with equal state masks coalesce), part 1 runs as one
// multi-range wavelet descent that splits the item list at each node,
// the per-predicate L_s ranges it produces are accumulated, sorted and
// coalesced, and part 2 runs as one more multi-range descent. The
// B[v]/D[v] pruning of §4.1–4.2 applies per item at every node, so the
// visited product subgraph — and with it the Theorem 4.1 work bound —
// is exactly the one the item-at-a-time traversal explores; only the
// shared top-of-tree descents are amortised across the frontier.

// batchCutoff is the frontier size below which a level is expanded with
// the classic per-item descent: the batched machinery (sorting, item
// splitting) only pays for itself once several ranges share the top of
// the tree.
const batchCutoff = 4

// bfsBatched drains the worklist level-synchronously; each level costs
// one batched part-1 descent and one batched part-2 descent (or the
// per-item equivalent below the cutoff).
func (e *Engine) bfsBatched(eng *glushkov.Engine, base uint64, emit EmitFunc) error {
	for len(e.queue) > 0 {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		items := e.frontierItems()
		sp, visits0 := -1, 0
		if e.trace != nil {
			visits0 = e.stats.WaveletVisits
			sp = e.trace.Begin(obs.SpanLevel)
		}
		var err error
		if len(items) < batchCutoff {
			for _, it := range items {
				if err = e.step(eng, it.B, it.E, it.Mask, base, emit); err != nil {
					break
				}
			}
		} else {
			err = e.stepMany(eng, items, base, emit)
		}
		e.trace.EndVals(sp, int64(len(items)), int64(e.stats.WaveletVisits-visits0))
		if err != nil {
			return err
		}
	}
	return nil
}

// frontierItems converts (and drains) the queued frontier into the
// ring's sorted disjoint L_p range items.
func (e *Engine) frontierItems() []wavelet.RangeMask {
	e.lpItems = appendRangeItems(e.lpItems[:0], e.r, mergeFrontier(e.queue), 0)
	e.queue = e.queue[:0]
	return e.lpItems
}

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
// disjoint L_p range items carrying tag: object ranges ascend with the
// node id, so node order is range order, and adjacent ranges with the
// same state mask and tag coalesce into one item. Nodes beyond r's id
// space (overlay-only nodes) and nodes without in-edges in r add none.
func appendRangeItems(dst []wavelet.RangeMask, r *ring.Ring, level []queueItem, tag uint32) []wavelet.RangeMask {
	for _, it := range level {
		if int(it.node) >= r.NumNodes {
			continue
		}
		b, end := r.ObjectRange(it.node)
		if b >= end {
			continue
		}
		if n := len(dst); n > 0 && dst[n-1].E == b && dst[n-1].Mask == it.d && dst[n-1].Tag == tag {
			dst[n-1].E = end
			continue
		}
		dst = append(dst, wavelet.RangeMask{B: b, E: end, Mask: it.d, Tag: tag})
	}
	return dst
}

// batchOwner bundles the per-ring working state the shared batched
// level expansion operates on. Engine and the multi-ring kernel each
// supply their own wavelet-node mask arrays and leaf action (emit +
// enqueue locally vs dedup against the kernel's global visited mask),
// so the part-1/part-2 descent logic exists exactly once.
type batchOwner struct {
	r            *ring.Ring
	bNode, dNode *lazy.MaskArray
	stats        *Stats
	noMarks      bool
	// st steps the automaton (the compiled stepper when the expression
	// is hot, else the interpreting engine); bArr, when non-nil, is the
	// precomputed immutable B[v] array replacing bNode.
	st   glushkov.Stepper
	bArr []uint64
	// check is the owner's deadline probe.
	check func() error
	// mark is the owner's markSubject (bottom-up D[v] maintenance); nil
	// when part2Leaf does its own marking.
	mark func(leaf wavelet.NodeID, states uint64)
	// part2Leaf handles one subject carrying unvisited states: all is
	// the union of the state masks that reached the leaf this level,
	// fresh the subset not yet visited there.
	part2Leaf func(s uint32, all, fresh uint64) error
	// leafMask, when non-nil, computes the state mask a part-2 leaf
	// actually receives from its items (default: the OR of the item
	// masks). The multi-ring kernel drops items whose occurrences of the
	// subject are all tombstoned, making the batched part 2 exact
	// without fragmenting the coalesced ranges.
	leafMask func(s uint32, its []wavelet.RangeMask) uint64
}

// stepManyOn is the batched §4 step over a whole level of one ring:
// part 1 over L_p in one multi-range descent (B[v] pruning per item),
// part 2 over L_s likewise, part 3 via the owner's part2Leaf. The
// lsItems scratch buffer is threaded through and returned for reuse.
func stepManyOn(o *batchOwner, eng *glushkov.Engine, items, lsItems []wavelet.RangeMask, base uint64) ([]wavelet.RangeMask, error) {
	lsItems = lsItems[:0]
	if len(items) == 0 {
		return lsItems, nil
	}
	negFwd, negInv := eng.NegClassBits()
	half := o.r.NumPreds / 2
	var failure error
	o.r.Lp.TraverseMany(items, func(node wavelet.NodeID, leaf bool, p uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		o.stats.WaveletVisits++
		if !leaf {
			// Part 1 pruning (Fact 1 via the aggregated B[v]), per item;
			// negated property sets contribute per node direction exactly
			// as on the unbatched path.
			var bmask uint64
			if o.bArr != nil {
				bmask = o.bArr[node]
			} else {
				bmask = o.bNode.Get(int(node))
			}
			cb, haveCB := uint64(0), false
			k := 0
			for _, it := range its {
				if it.Mask&bmask == 0 {
					if negFwd|negInv == 0 {
						continue
					}
					if !haveCB {
						lo, hi := o.r.Lp.SymRange(node)
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
		if err := o.check(); err != nil {
			failure = err
			return 0
		}
		// Leaf work is per item, so the visit stat stays comparable with
		// the per-item descent (one visit per frontier item per leaf).
		o.stats.WaveletVisits += len(its) - 1
		bp := o.st.PredMask(p)
		cp := o.r.Cp[p]
		for _, it := range its {
			d := it.Mask & bp
			if d == 0 {
				continue
			}
			o.stats.ProductEdges++
			// The NFA transition is uniform across the item's range
			// (Fact 1); the rank range plus C_p is the L_s source range
			// (Eqs. 4–5).
			d2 := o.st.StepBack(d)
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
	if failure != nil {
		return lsItems, failure
	}
	return lsItems, part2ManyOn(o, lsItems, base)
}

// part2ManyOn expands the level's accumulated L_s ranges in one batched
// descent: distinct subjects with unvisited states are marked and
// handed to the owner's leaf action — each subject exactly once per
// level, with the union of the states that reached it (§4.2–4.3).
func part2ManyOn(o *batchOwner, lsItems []wavelet.RangeMask, base uint64) error {
	if len(lsItems) == 0 {
		return nil
	}
	// Leaves of part 1 arrive in bottom-level (bit-reversal) order for
	// the wavelet matrix; restore position order before descending.
	slices.SortFunc(lsItems, func(a, b wavelet.RangeMask) int { return cmp.Compare(a.B, b.B) })
	var failure error
	o.r.Ls.TraverseMany(lsItems, func(node wavelet.NodeID, leaf bool, s uint32, its []wavelet.RangeMask) int {
		if failure != nil {
			return 0
		}
		o.stats.WaveletVisits++
		visited := o.dNode.Get(int(node)) | base
		if !leaf {
			if o.noMarks {
				return len(its)
			}
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
		if err := o.check(); err != nil {
			failure = err
			return 0
		}
		var all uint64
		if o.leafMask != nil {
			all = o.leafMask(s, its)
		} else {
			for _, it := range its {
				all |= it.Mask
			}
		}
		if all == 0 {
			return 0
		}
		fresh := all &^ visited
		if fresh == 0 {
			return 0
		}
		if o.mark != nil {
			o.mark(node, all)
		}
		if err := o.part2Leaf(s, all, fresh); err != nil {
			failure = err
			return 0
		}
		return 0
	})
	return failure
}

// stepMany runs the shared batched step with the engine's working
// arrays: discovered sources are emitted and continuations enqueued
// into the next frontier.
func (e *Engine) stepMany(eng *glushkov.Engine, items []wavelet.RangeMask, base uint64, emit EmitFunc) error {
	o := batchOwner{
		r:       e.r,
		bNode:   e.bNode,
		dNode:   e.dNode,
		stats:   &e.stats,
		noMarks: e.noMarks,
		st:      e.st,
		bArr:    e.bArr,
		check:   e.checkDeadline,
		mark:    e.markSubject,
		part2Leaf: func(s uint32, all, fresh uint64) error {
			e.stats.ProductNodes++
			if fresh&eng.Init != 0 {
				if !emit(s, 0) {
					return errLimit
				}
				fresh &^= eng.Init // the initial state has no incoming work
			}
			if fresh != 0 && e.r.Co[s+1] > e.r.Co[s] {
				e.queue = append(e.queue, queueItem{s, fresh})
			}
			return nil
		},
	}
	var err error
	e.lsItems, err = stepManyOn(&o, eng, items, e.lsItems, base)
	return err
}
