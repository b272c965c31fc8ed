package core

import (
	"sort"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/obs"
	"ringrpq/internal/wavelet"
)

// The level loop of the frontier-batched traversal (see batch.go for the
// batched step itself): one multi-range wavelet descent per ring per
// level. Each level runs two passes:
//
//   - batched (per ring): stepMany over the level's coalesced L_p
//     ranges. Tombstones are handled exactly at the part-2 leaves: per
//     ring and overlay version, each tombstone's leaf rank under its
//     subject is cached, and a leaf drops the items whose occurrences
//     of the subject are all tombstoned — no per-leaf deletion probes
//     and, crucially, no fragmentation of the coalesced ranges (a
//     punched-out position would split them into thousands of
//     single-gap pieces);
//   - overlay: the object-sorted adds entering each frontier object,
//     merged linearly against the sorted frontier.
//
// Both passes share the per-node visited masks, so the visited product
// subgraph is exactly the one the item-at-a-time traversal explores.

// tombstoneRanks resolves (and caches per overlay version) each
// tombstone's leaf rank under its subject in this ring's L_s: the
// triple (s, p, o) occupies exactly one position of its backward-search
// range, and its rank among the occurrences of s is Rank(s, lsB) — one
// rank probe per tombstone, once per overlay version.
func (e *Engine) tombstoneRanks(w *ringWork) map[uint32][]int {
	if w.delRanksValid && w.delRanksVersion == e.ov.Version() {
		return w.delRanks
	}
	m := map[uint32][]int{}
	r := w.r
	for _, d := range e.ov.Dels() {
		if int(d.O) >= r.NumNodes || d.P >= r.NumPreds {
			continue
		}
		b, end := r.ObjectRange(d.O)
		if b == end {
			continue
		}
		lsB, lsE := r.BackwardByPred(b, end, d.P)
		r0 := r.Ls.Rank(d.S, lsB)
		if r.Ls.Rank(d.S, lsE) != r0 { // else: not in this ring
			m[d.S] = append(m[d.S], r0)
		}
	}
	for _, rs := range m {
		sort.Ints(rs)
	}
	w.delRanks = m
	w.delRanksVersion = e.ov.Version()
	w.delRanksValid = true
	return m
}

// leafMaskFor builds the state mask a part-2 leaf of w receives from its
// items: their OR, minus items whose occurrences of the subject are all
// tombstoned. Nil (plain OR) when the ring has no tombstones.
func (e *Engine) leafMaskFor(w *ringWork) func(s uint32, its []wavelet.RangeMask) uint64 {
	ranks := e.tombstoneRanks(w)
	if len(ranks) == 0 {
		return nil
	}
	return func(s uint32, its []wavelet.RangeMask) uint64 {
		var all uint64
		rs := ranks[s]
		for _, it := range its {
			if len(rs) == 0 || it.E-it.B > sort.SearchInts(rs, it.E)-sort.SearchInts(rs, it.B) {
				all |= it.Mask
			}
		}
		return all
	}
}

// bfsBatched drains the worklist level-synchronously; every level is
// one span.
func (e *Engine) bfsBatched(eng *glushkov.Engine, emit EmitFunc) error {
	for len(e.queue) > 0 {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		// The merged level stays in the old queue's buffer while new
		// discoveries queue up in the previous level's.
		level := mergeFrontier(e.queue)
		e.queue, e.level = e.level[:0], level
		sp, visits0 := -1, 0
		if e.trace != nil {
			visits0 = e.stats.WaveletVisits
			sp = e.trace.Begin(obs.SpanLevel)
		}
		err := e.expandLevel(eng, level, emit)
		e.trace.EndVals(sp, int64(len(level)), int64(e.stats.WaveletVisits-visits0))
		if err != nil {
			return err
		}
	}
	return nil
}

// expandLevel expands one sorted, deduplicated level: item at a time
// below the batching cutoff, else the two-pass expansion above.
func (e *Engine) expandLevel(eng *glushkov.Engine, level []queueItem, emit EmitFunc) error {
	if len(level) < batchCutoff {
		for _, it := range level {
			if err := e.expand(eng, it.node, it.d, emit); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range e.work {
		e.lpItems = appendRangeItems(e.lpItems[:0], w.r, level)
		if err := e.stepMany(eng, w, e.lpItems, emit); err != nil {
			return err
		}
	}
	// Overlay adds entering the frontier (both sorted by object: a
	// linear merge instead of per-node binary searches).
	adds := e.ov.Adds()
	i := 0
	for _, it := range level {
		for i < len(adds) && adds[i].O < it.node {
			i++
		}
		j := i
		for j < len(adds) && adds[j].O == it.node {
			j++
		}
		if err := e.addsStep(eng, adds[i:j], it.d, emit); err != nil {
			return err
		}
		i = j
	}
	return nil
}
