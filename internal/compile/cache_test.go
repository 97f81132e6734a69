package compile

import (
	"fmt"
	"sync"
	"testing"
)

func mkPlan(norm string, version uint64) *CompiledPlan {
	return &CompiledPlan{Norm: norm, Version: version}
}

func TestCachePeekPutHit(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Peek("k"); ok {
		t.Fatal("empty cache must miss")
	}
	cp := mkPlan("k", 1)
	c.Miss()
	c.Put("k", cp)
	got, ok := c.Peek("k")
	if !ok || got != cp {
		t.Fatal("peek after put")
	}
	c.Hit("k")
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Capacity != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", mkPlan("a", 1))
	c.Put("b", mkPlan("b", 1))
	c.Hit("a") // refresh a: b is now least recently used
	c.Put("c", mkPlan("c", 1))
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("recently used entry a must survive")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheInvalidateOnlyIfCurrent(t *testing.T) {
	c := NewCache(4)
	old := mkPlan("k", 1)
	c.Put("k", old)
	fresh := mkPlan("k", 2)
	c.Put("k", fresh) // a concurrent statement already recompiled
	c.Invalidate("k", old)
	if got, ok := c.Peek("k"); !ok || got != fresh {
		t.Fatal("invalidating a replaced entry must be a no-op")
	}
	c.Invalidate("k", fresh)
	if _, ok := c.Peek("k"); ok {
		t.Fatal("invalidating the current entry must remove it")
	}
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c := NewCache(0)
	if c.Stats().Capacity != 1 {
		t.Fatalf("capacity = %d, want 1", c.Stats().Capacity)
	}
}

// TestCacheConcurrent exercises the cache from many goroutines; run with
// -race it is the unit-level half of the engine's concurrent plan-cache test.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if e, ok := c.Peek(key); ok {
					if i%3 == 0 {
						c.Invalidate(key, e)
					} else {
						c.Hit(key)
					}
				} else {
					c.Miss()
					c.Put(key, mkPlan(key, uint64(g)))
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 8 {
		t.Fatalf("capacity bound violated: %+v", s)
	}
	if s.Hits+s.Misses == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
}

// TestCacheFamilies: a lifted text's plans are indexed by family while any
// of them is cached, and the index names the newest and its key.
func TestCacheFamilies(t *testing.T) {
	c := NewCache(2)
	lifted := func() *CompiledPlan {
		cp := mkPlan("SELECT A FROM T WHERE A = ?", 1)
		cp.Family = Key(cp.Norm, "I")
		return cp
	}
	hot, cold := lifted(), lifted()
	c.Put(Key(hot.Family, "\x03"), hot)
	c.Put(Key(cold.Family, "\x0f"), cold)
	if got, key, ok := c.Family(hot.Family); !ok || got != cold || key != Key(cold.Family, "\x0f") {
		t.Fatalf("family = %v %q %v, want the newest plan and its key", got, key, ok)
	}
	c.Invalidate(Key(cold.Family, "\x0f"), cold)
	if _, _, ok := c.Family(hot.Family); !ok {
		t.Fatal("a family with a cached plan left must stay indexed")
	}
	c.Put("a", mkPlan("a", 1))
	c.Put("b", mkPlan("b", 1)) // evicts hot, the family's last plan
	if _, _, ok := c.Family(hot.Family); ok {
		t.Fatal("a family must leave the index with its last plan")
	}
	if s := c.Stats(); s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
