package core

import (
	"cmp"
	"slices"

	"ringrpq/internal/glushkov"
	"ringrpq/internal/obs"
	"ringrpq/internal/ring"
	"ringrpq/internal/wavelet"
)

// The level loop of the frontier-batched traversal (see batch.go for the
// batched step itself): one multi-range wavelet descent per ring per
// level. Each level runs two passes:
//
//   - batched (per ring): stepMany over the level's coalesced L_p
//     ranges. Tombstones are handled exactly at the part-2 leaves: per
//     ring, each tombstone's leaf rank under its subject is probed once
//     and carried across overlay versions (tombRanks), and a leaf drops
//     the items whose occurrences of the subject are all tombstoned —
//     no per-leaf deletion probes and, crucially, no fragmentation of
//     the coalesced ranges (a punched-out position would split them
//     into thousands of single-gap pieces);
//   - overlay: the object-sorted adds entering each frontier object,
//     merged linearly against the sorted frontier.
//
// Both passes share the per-node visited masks, so the visited product
// subgraph is exactly the one the item-at-a-time traversal explores.

// tombRanks carries one ring's tombstone leaf ranks from overlay
// version to overlay version. A tombstone (s, p, o) occupies exactly
// one position of its backward-search range in L_s, and its rank among
// the occurrences of s there, Rank(s, lsB), depends on the ring alone:
// it is probed once, when the tombstone first appears, and reused by
// every later version that still holds it. A new version's Dels() is
// merge-walked against the last one's (both sorted by (O, P, S)), so a
// version costs one probe per new tombstone plus a sort of the keys.
type tombRanks struct {
	// dels is the Dels() slice the ranks were last synced to, and
	// ranks[i] dels[i]'s leaf rank under its subject, -1 when the edge
	// is not in the ring.
	dels  []Edge
	ranks []int
	// keys holds subject<<32 | rank of every tombstone in the ring,
	// sorted: a part-2 leaf finds its subject's run by binary search.
	// A rank counts occurrences of one subject, so it fits 32 bits.
	keys []uint64
	// probes counts rank probes since the kernel was built.
	probes int
	// spare is the ranks buffer of the version before, reused.
	spare []int
}

func tombKey(s uint32, rank int) uint64 { return uint64(s)<<32 | uint64(rank) }

// cmpOPS orders edges by (O, P, S), the order of Delta.Dels.
func cmpOPS(a, b Edge) int {
	if c := cmp.Compare(a.O, b.O); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// sync brings the ranks to dels, a non-empty Dels() slice of a version
// over r. An unchanged slice (the same version, or one that changed
// only its adds) costs nothing.
func (t *tombRanks) sync(r *ring.Ring, dels []Edge) {
	if len(dels) == len(t.dels) && &dels[0] == &t.dels[0] {
		return
	}
	ranks, keys := t.spare[:0], t.keys[:0]
	i := 0
	for _, d := range dels {
		for i < len(t.dels) && cmpOPS(t.dels[i], d) < 0 {
			i++
		}
		var rank int
		if i < len(t.dels) && t.dels[i] == d {
			rank = t.ranks[i]
		} else {
			rank = t.probe(r, d)
		}
		ranks = append(ranks, rank)
		if rank >= 0 {
			keys = append(keys, tombKey(d.S, rank))
		}
	}
	slices.Sort(keys)
	t.spare, t.ranks, t.keys, t.dels = t.ranks, ranks, keys, dels
}

// probe returns d's leaf rank under its subject in r's L_s, or -1 when
// d is not one of r's triples.
func (t *tombRanks) probe(r *ring.Ring, d Edge) int {
	t.probes++
	if int(d.O) >= r.NumNodes || d.P >= r.NumPreds {
		return -1
	}
	b, end := r.ObjectRange(d.O)
	if b == end {
		return -1
	}
	lsB, lsE := r.BackwardByPred(b, end, d.P)
	r0 := r.Ls.Rank(d.S, lsB)
	if r.Ls.Rank(d.S, lsE) == r0 {
		return -1
	}
	return r0
}

// leafMask is the state mask a part-2 leaf of subject s receives from
// its items: their OR, minus items whose occurrences of s are all
// tombstoned.
func (t *tombRanks) leafMask(s uint32, its []wavelet.RangeMask) uint64 {
	lo, _ := slices.BinarySearch(t.keys, tombKey(s, 0))
	hi := lo
	for hi < len(t.keys) && uint32(t.keys[hi]>>32) == s {
		hi++
	}
	rs := t.keys[lo:hi]
	var all uint64
	for _, it := range its {
		if len(rs) > 0 {
			b, _ := slices.BinarySearch(rs, tombKey(s, it.B))
			e, _ := slices.BinarySearch(rs, tombKey(s, it.E))
			if it.E-it.B == e-b {
				continue
			}
		}
		all |= it.Mask
	}
	return all
}

// TombstoneRanks syncs ring k's carried tombstone ranks to the attached
// delta and returns them aligned with its Dels(): each tombstone's leaf
// rank under its subject, -1 for one not in the ring. The slice is the
// kernel's own; it is for tests that hold the carried ranks to fresh
// probes.
func (e *Engine) TombstoneRanks(k int) []int {
	dels := e.delta.Dels()
	if len(dels) == 0 {
		return nil
	}
	w := e.work[k]
	w.tomb.sync(w.r, dels)
	return w.tomb.ranks
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
