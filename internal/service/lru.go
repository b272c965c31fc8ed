package service

import "container/list"

// lruCache is a mutex-free LRU map bounded by entry count and by an
// approximate byte total; callers provide the cost of each value when
// inserting. Synchronisation is the caller's job (the Service wraps it
// in its own mutex so hit/miss accounting stays atomic with the
// lookup).
type lruCache struct {
	maxEntries int
	maxBytes   int64

	bytes     int64
	evictions int64
	order     *list.List // front = most recent
	entries   map[string]*list.Element
}

type lruEntry struct {
	key   string
	value any
	cost  int64
}

// newLRUCache builds a cache holding at most maxEntries values and
// maxBytes of accounted cost. Either bound may be 0, disabling the
// cache entirely (every Add is a no-op).
func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
	}
}

func (c *lruCache) enabled() bool { return c.maxEntries > 0 && c.maxBytes > 0 }

// Get returns the cached value and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Add inserts or replaces key. Values costing more than the whole
// cache are not stored.
func (c *lruCache) Add(key string, value any, cost int64) {
	if !c.enabled() || cost > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += cost - e.cost
		e.value, e.cost = value, cost
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value, cost: cost})
		c.bytes += cost
	}
	for c.order.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

func (c *lruCache) evictOldest() {
	el := c.order.Back()
	if el == nil {
		return
	}
	e := el.Value.(*lruEntry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.cost
	c.evictions++
}

// Clear drops every entry and reports how many there were. The caller
// has made them unreachable, so they do not count as evictions.
func (c *lruCache) Clear() int {
	n := c.order.Len()
	c.order.Init()
	clear(c.entries)
	c.bytes = 0
	return n
}

// Len reports the number of cached entries.
func (c *lruCache) Len() int { return c.order.Len() }

// Bytes reports the accounted cost of the cached entries.
func (c *lruCache) Bytes() int64 { return c.bytes }

// Evictions reports how many entries were evicted over the cache's
// lifetime.
func (c *lruCache) Evictions() int64 { return c.evictions }
