package core

// pairSet is a reusable membership set over (s, o) result pairs, used
// by the §5 fast paths in place of a per-query map[uint64]bool (the
// paper's hash table). Bits live in fixed 4096-pair pages addressed by
// the high bits of the packed key; pages are allocated on first touch,
// retained across queries, and invalidated in O(1) by an epoch bump —
// a page is lazily re-zeroed the first time a new epoch touches it. In
// steady state a fast-path query allocates nothing.
type pairSet struct {
	pages map[uint64]*pairPage
	epoch uint32

	// One-entry lookup cache: fastSingle and fastConcat2 probe pairs
	// with a fixed subject and ascending objects, so consecutive keys
	// almost always share a page.
	lastID uint64
	last   *pairPage
}

const (
	// pairPageBits sets the page size: 2^12 = 4096 pairs (512 bytes).
	pairPageBits  = 12
	pairPageWords = 1 << pairPageBits / 64

	// maxPairPages bounds the retained page directory (32 MiB of bits);
	// an engine that ever exceeds it drops the directory on reset.
	maxPairPages = 1 << 16
)

type pairPage struct {
	epoch uint32
	bits  [pairPageWords]uint64
}

// add inserts (s, o) and reports whether it was absent. The steady
// state (page-cache or directory hit) allocates nothing; first-touch
// page allocation lives in the cold lookupPage helper.
//
//ringrpq:noalloc
func (ps *pairSet) add(s, o uint32) bool {
	key := uint64(s)<<32 | uint64(o)
	id := key >> pairPageBits
	pg := ps.last
	if pg == nil || ps.lastID != id {
		pg = ps.lookupPage(id)
	}
	if pg.epoch != ps.epoch {
		pg.epoch = ps.epoch
		pg.bits = [pairPageWords]uint64{}
	}
	off := key & (1<<pairPageBits - 1)
	w, bit := off/64, uint(off%64)
	if pg.bits[w]&(1<<bit) != 0 {
		return false
	}
	pg.bits[w] |= 1 << bit
	return true
}

// lookupPage returns the page holding id, allocating the directory
// and the page on first touch, and primes the one-entry cache.
func (ps *pairSet) lookupPage(id uint64) *pairPage {
	if ps.pages == nil {
		ps.pages = make(map[uint64]*pairPage)
	}
	pg := ps.pages[id]
	if pg == nil {
		pg = &pairPage{epoch: ps.epoch}
		ps.pages[id] = pg
	}
	ps.last, ps.lastID = pg, id
	return pg
}

// reset invalidates every page in O(1). On epoch wraparound (or an
// oversized directory) the pages are dropped instead, so stale epochs
// can never collide with live ones.
//
//ringrpq:noalloc
func (ps *pairSet) reset() {
	ps.last, ps.lastID = nil, 0
	ps.epoch++
	if ps.epoch == 0 || len(ps.pages) > maxPairPages {
		ps.pages = nil
		ps.epoch = 1
	}
}
