package compile

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU plan cache. Lookup is split in two so the
// caller can validate the catalog version under the statement's locks:
//
//	e, ok := cache.Peek(key)                    // lock-free w.r.t. the catalog
//	err := t.Locks.AcquireContext(ctx, e.Locks) // pins the catalog version
//	if e.Version == cat.Version() { cache.Hit(key); execute(e) }
//	else { cache.Invalidate(key, e); recompile; cache.Put(key, fresh) }
//
// Peeking before the locks is safe because plans are immutable and the
// version check happens after the shared catalog lock is held: a plan that
// went stale between Peek and the grant fails the version check and
// recompiles.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits          int64
	misses        int64
	invalidations int64
	evictions     int64
}

type cacheEntry struct {
	key string
	cp  *CompiledPlan
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	// Hits counts executions served entirely from the cache (parse, semantic
	// analysis, and optimization all skipped).
	Hits int64
	// Misses counts cached-path lookups that had to compile: not present, or
	// present but stale. Hits+Misses = cached-path lookups.
	Misses int64
	// Invalidations counts entries discarded because the catalog version
	// moved (DDL or UPDATE STATISTICS) since they were compiled.
	Invalidations int64
	// Evictions counts entries displaced by the LRU capacity bound.
	Evictions int64
	// Entries and Capacity describe current occupancy.
	Entries  int
	Capacity int
}

// NewCache creates a plan cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Peek returns the cached plan for key without touching LRU order or
// counters. The caller must validate the plan's Version before use.
func (c *Cache) Peek(key string) (*CompiledPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).cp, true
	}
	return nil, false
}

// Hit records a served execution and refreshes the entry's recency.
func (c *Cache) Hit(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
	}
}

// Miss records a cached-path lookup that had to compile.
func (c *Cache) Miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Invalidate removes key if it still maps to old (a concurrent statement may
// already have replaced it with a freshly compiled plan, which must stay).
func (c *Cache) Invalidate(key string, old *CompiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).cp != old {
		return
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.invalidations++
}

// Put inserts (or replaces) the plan for key at the front of the LRU,
// evicting from the back when over capacity.
func (c *Cache) Put(key string, cp *CompiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).cp = cp
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, cp: cp})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		Capacity:      c.capacity,
	}
}
