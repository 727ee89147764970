package queryplane

import (
	"sync"
	"sync/atomic"

	"brokerset/internal/routing"
)

// entry is one cached path with the generation it was computed under.
// Entries form a doubly-linked LRU list threaded through their shard.
type entry struct {
	key        routing.QueryKey
	path       *routing.Path
	gen        uint64
	prev, next *entry
}

// cacheShard is one independently locked slice of the cache: a map for
// lookup plus an intrusive LRU list (sentinel-rooted) for eviction order.
type cacheShard struct {
	mu    sync.Mutex
	items map[routing.QueryKey]*entry
	root  entry // sentinel: root.next = MRU, root.prev = LRU
	cap   int
}

// newCacheShard starts a shard empty: its map grows with what it holds, up to
// cap. Presized to the bound, the serving plane's 16 shards would hold 6 MB of
// empty map before the first query, and a federated daemon runs four such
// planes, while the flat workloads keep a few hundred pairs hot.
func newCacheShard(capacity int) *cacheShard {
	s := &cacheShard{items: make(map[routing.QueryKey]*entry), cap: capacity}
	s.root.prev = &s.root
	s.root.next = &s.root
	return s
}

func (s *cacheShard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *cacheShard) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

// Cache is a sharded, size-bounded, generation-aware LRU of computed
// B-dominated paths. The generation is the caller's (the topology epoch):
// an entry stamped with an older one is stale, and stale entries are
// revalidated or dropped lazily on lookup, or go by eviction pressure.
type Cache struct {
	shards    []*cacheShard
	mask      uint64
	evictions atomic.Uint64
}

// NewCache builds a cache with the given shard count (rounded up to a power
// of two, min 1) and total entry capacity split evenly across shards.
func NewCache(shards, capacity int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = newCacheShard(per)
	}
	return c
}

// Evictions returns the cumulative count of capacity evictions and stale
// drops.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

func (c *Cache) shardFor(k routing.QueryKey) *cacheShard {
	return c.shards[k.Hash()&c.mask]
}

// LookupRefresh is the lookup with stale-entry revalidation and miss
// classification: when an entry for k exists under an older generation,
// check decides whether its path is still servable under gen (a nil check
// says no); if so the entry is re-stamped to gen and returned as a hit,
// otherwise it is dropped and the miss reads as stale — an
// invalidation-caused miss, as opposed to a cold one.
// check runs without the shard lock held (it typically walks the path
// against an immutable epoch snapshot), so a concurrent writer may replace
// the entry mid-check; the re-stamp detects that and gives up.
func (c *Cache) LookupRefresh(k routing.QueryKey, gen uint64, check func(*routing.Path) bool) (p *routing.Path, ok, stale, refreshed bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, found := s.items[k]
	if !found {
		s.mu.Unlock()
		return nil, false, false, false
	}
	if e.gen == gen {
		s.unlink(e)
		s.pushFront(e)
		p = e.path
		s.mu.Unlock()
		return p, true, false, false
	}
	cand, oldGen := e.path, e.gen
	s.mu.Unlock()

	if check != nil && check(cand) {
		s.mu.Lock()
		if e2, still := s.items[k]; still && e2.path == cand && e2.gen == oldGen {
			e2.gen = gen
			s.unlink(e2)
			s.pushFront(e2)
			s.mu.Unlock()
			return cand, true, false, true
		}
		s.mu.Unlock()
		// Entry changed under us; treat as a stale miss without dropping
		// the (newer) replacement.
		return nil, false, true, false
	}

	s.mu.Lock()
	if e2, still := s.items[k]; still && e2.path == cand && e2.gen == oldGen {
		s.unlink(e2)
		delete(s.items, k)
		s.mu.Unlock()
		c.evictions.Add(1)
	} else {
		s.mu.Unlock()
	}
	return nil, false, true, false
}

// Put stores a path computed under gen. If the generation has moved on the
// entry is inserted anyway (it will read as stale), preserving the
// invariant that Get never returns a path newer-labelled than its compute.
func (c *Cache) Put(k routing.QueryKey, p *routing.Path, gen uint64) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.path = p
		e.gen = gen
		s.unlink(e)
		s.pushFront(e)
		s.mu.Unlock()
		return
	}
	var evicted bool
	if len(s.items) >= s.cap {
		lru := s.root.prev
		s.unlink(lru)
		delete(s.items, lru.key)
		evicted = true
	}
	e := &entry{key: k, path: p, gen: gen}
	s.items[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the total number of resident entries (stale included).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
