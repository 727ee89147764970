package queryplane

import (
	"testing"

	"brokerset/internal/routing"
)

func key(src, dst int) routing.QueryKey {
	return routing.Options{}.CacheKey(src, dst)
}

// gen is the generation the tests' entries are computed under; the cache
// takes it from its caller (the topology epoch).
const gen uint64 = 1

func pathFor(src, dst int) *routing.Path {
	return &routing.Path{Nodes: []int32{int32(src), int32(dst)}, Latency: 1}
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(4, 64)
	if _, ok := c.Get(key(1, 2), gen); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1, 2), pathFor(1, 2), gen)
	p, ok := c.Get(key(1, 2), gen)
	if !ok || p.Nodes[0] != 1 || p.Nodes[1] != 2 {
		t.Fatalf("get = %v, %v", p, ok)
	}
	// Distinct options are distinct entries.
	k2 := routing.Options{MinBandwidth: 2}.CacheKey(1, 2)
	if _, ok := c.Get(k2, gen); ok {
		t.Fatal("options conflated into one key")
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewCache(2, 16)
	c.Put(key(1, 2), pathFor(1, 2), gen)
	ng := gen + 1 // the epoch moved
	if _, ok := c.Get(key(1, 2), ng); ok {
		t.Fatal("stale entry survived invalidation")
	}
	if c.Evictions() == 0 {
		t.Fatal("stale drop not counted as eviction")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry still resident: len = %d", c.Len())
	}
	// Entries stored under an old generation never read fresh.
	c.Put(key(3, 4), pathFor(3, 4), gen)
	if _, ok := c.Get(key(3, 4), ng); ok {
		t.Fatal("old-generation Put read back as fresh")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 3) // single shard, capacity 3
	for i := 0; i < 3; i++ {
		c.Put(key(i, 100), pathFor(i, 100), gen)
	}
	// Touch 0 so 1 becomes LRU.
	if _, ok := c.Get(key(0, 100), gen); !ok {
		t.Fatal("miss on resident entry")
	}
	c.Put(key(3, 100), pathFor(3, 100), gen)
	if _, ok := c.Get(key(1, 100), gen); ok {
		t.Fatal("LRU entry not evicted")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := c.Get(key(want, 100), gen); !ok {
			t.Fatalf("entry %d wrongly evicted", want)
		}
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
}

// TestCacheBoundWithoutPresizing: at the serving sizing a shard's map starts
// empty and grows, and the LRU bound still holds it — 70,000 distinct keys
// leave no shard above its cap and the cache at most cacheCapacity entries,
// the excess evicted.
func TestCacheBoundWithoutPresizing(t *testing.T) {
	c := NewCache(cacheShards, cacheCapacity)
	for i := 0; i < 70000; i++ {
		c.Put(key(i, i+1), pathFor(i, i+1), gen)
	}
	for i, s := range c.shards {
		if n := len(s.items); n > s.cap {
			t.Errorf("shard %d holds %d entries over its cap %d", i, n, s.cap)
		}
	}
	if n := c.Len(); n > cacheCapacity {
		t.Errorf("Len() = %d, want at most %d", n, cacheCapacity)
	}
	if c.Evictions() == 0 {
		t.Error("70,000 keys over a 65,536-entry bound evicted nothing")
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(3, 10) // rounds to 4 shards
	if len(c.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(c.shards))
	}
	c = NewCache(0, 0)
	if len(c.shards) != 1 || c.shards[0].cap != 1 {
		t.Fatalf("degenerate cache: %d shards cap %d", len(c.shards), c.shards[0].cap)
	}
}

func TestCacheLookupRefresh(t *testing.T) {
	c := NewCache(1, 16)
	c.Put(key(1, 2), pathFor(1, 2), gen)
	ng := gen + 1

	// Passing check re-stamps the stale entry: a hit under the new
	// generation, no eviction, and subsequent plain Gets stay fresh.
	p, ok, stale, refreshed := c.LookupRefresh(key(1, 2), ng, func(*routing.Path) bool { return true })
	if !ok || stale || !refreshed || p.Nodes[0] != 1 {
		t.Fatalf("refresh hit = (%v, %v, %v, %v)", p, ok, stale, refreshed)
	}
	if _, ok := c.Get(key(1, 2), ng); !ok {
		t.Fatal("re-stamped entry not fresh under new generation")
	}
	if c.Evictions() != 0 {
		t.Fatalf("refresh counted as eviction: %d", c.Evictions())
	}

	// A fresh entry short-circuits: check must not run.
	_, ok, _, refreshed = c.LookupRefresh(key(1, 2), ng, func(*routing.Path) bool {
		t.Fatal("check ran on a fresh entry")
		return false
	})
	if !ok || refreshed {
		t.Fatalf("fresh lookup = ok %v refreshed %v", ok, refreshed)
	}

	// Failing check drops the entry and reads as a stale miss.
	_, ok, stale, refreshed = c.LookupRefresh(key(1, 2), ng+1, func(*routing.Path) bool { return false })
	if ok || !stale || refreshed {
		t.Fatalf("failed refresh = (ok %v, stale %v, refreshed %v)", ok, stale, refreshed)
	}
	if c.Evictions() != 1 || c.Len() != 0 {
		t.Fatalf("dropped entry not evicted: evictions %d len %d", c.Evictions(), c.Len())
	}

	// A writer replacing the entry while check runs wins: the re-stamp
	// detects the identity change, reports a stale miss, and the newer
	// entry survives untouched.
	c.Put(key(3, 4), pathFor(3, 4), gen)
	newer := &routing.Path{Nodes: []int32{3, 9, 4}, Latency: 2}
	_, ok, stale, refreshed = c.LookupRefresh(key(3, 4), ng, func(*routing.Path) bool {
		c.Put(key(3, 4), newer, ng)
		return true
	})
	if ok || !stale || refreshed {
		t.Fatalf("raced refresh = (ok %v, stale %v, refreshed %v)", ok, stale, refreshed)
	}
	if p, ok := c.Get(key(3, 4), ng); !ok || p != newer {
		t.Fatal("concurrent replacement lost to a raced re-stamp")
	}
}

// Get returns the cached path for k if present and computed under gen.
// Entries from older generations are removed and reported as misses.
func (c *Cache) Get(k routing.QueryKey, gen uint64) (*routing.Path, bool) {
	p, ok, _, _ := c.LookupRefresh(k, gen, nil)
	return p, ok
}
