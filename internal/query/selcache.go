package query

import (
	"sync"

	"ringrpq/internal/ring"
)

// SelCache lazily builds and shares the §6 selectivity structures
// (internal/ring/selectivity.go) per ring. Construction is O(n log n)
// and roughly doubles the index footprint, so it happens once on the
// first pattern query and the result is shared: the cache is safe for
// concurrent use and one instance is meant to be passed to every Exec
// over the same database (e.g. across service worker clones).
type SelCache struct {
	mu sync.Mutex
	m  map[*ring.Ring]*ring.Selectivity
}

// NewSelCache returns an empty cache.
func NewSelCache() *SelCache {
	return &SelCache{m: map[*ring.Ring]*ring.Selectivity{}}
}

// For returns the selectivity structures of r, building them on first
// use. Concurrent first calls for the same ring may build redundantly;
// one result wins and the rest are dropped (builds are pure).
func (c *SelCache) For(r *ring.Ring) *ring.Selectivity {
	c.mu.Lock()
	s, ok := c.m[r]
	c.mu.Unlock()
	if ok {
		return s
	}
	s = ring.NewSelectivity(r)
	c.mu.Lock()
	if prev, ok := c.m[r]; ok {
		s = prev
	} else {
		c.m[r] = s
	}
	c.mu.Unlock()
	return s
}

// Retain drops every cached entry but keep's: after a compaction swap,
// the superseded ring's statistics are unreachable garbage.
func (c *SelCache) Retain(keep *ring.Ring) {
	c.mu.Lock()
	for r := range c.m {
		if r != keep {
			delete(c.m, r)
		}
	}
	c.mu.Unlock()
}
