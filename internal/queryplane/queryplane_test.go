package queryplane

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
)

// countingCompute fabricates paths and counts invocations; block, when
// non-nil, stalls computations until closed.
type countingCompute struct {
	calls atomic.Int64
	block chan struct{}
	fail  atomic.Bool
}

func (c *countingCompute) fn(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
	c.calls.Add(1)
	if c.block != nil {
		select {
		case <-c.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if c.fail.Load() {
		return nil, fmt.Errorf("routing: no dominated path %d -> %d", src, dst)
	}
	return &routing.Path{Nodes: []int32{int32(src), int32(dst)}, Latency: 1}, nil
}

// newPlane builds a plane over cc whose generation the test owns — advancing
// it is what an epoch publication does to the daemon's plane — and whose
// revalidator refuses every stale entry, so a generation step is a miss.
func newPlane(t *testing.T, cc *countingCompute) (*QueryPlane, *atomic.Uint64) {
	t.Helper()
	gen := new(atomic.Uint64)
	qp, err := New(Config{
		Compute:    cc.fn,
		Generation: gen.Load,
		Revalidate: func(*routing.Path, routing.Options, uint64) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	return qp, gen
}

// resizePool gives qp a worker pool and wait queue of the given sizes, the
// way New sizes them from GOMAXPROCS.
func resizePool(qp *QueryPlane, workers, queueDepth int) {
	qp.sem = make(chan struct{}, workers)
	qp.queueDepth = queueDepth
}

func TestQueryCacheHitFlow(t *testing.T) {
	cc := &countingCompute{}
	qp, _ := newPlane(t, cc)
	ctx := context.Background()

	p, cached, err := qp.Query(ctx, 1, 2, routing.Options{})
	if err != nil || cached || p == nil {
		t.Fatalf("first query: %v cached=%v", err, cached)
	}
	p, cached, err = qp.Query(ctx, 1, 2, routing.Options{})
	if err != nil || !cached {
		t.Fatalf("second query not a hit: %v cached=%v", err, cached)
	}
	if p.Nodes[0] != 1 {
		t.Fatalf("bad cached path %v", p.Nodes)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := qp.Stats()
	if st.Queries != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Different options bypass the cached entry.
	if _, cached, _ := qp.Query(ctx, 1, 2, routing.Options{MaxHops: 3}); cached {
		t.Fatal("constrained query served from unconstrained entry")
	}
}

func TestQueryInvalidation(t *testing.T) {
	cc := &countingCompute{}
	qp, gen := newPlane(t, cc)
	ctx := context.Background()
	if _, _, err := qp.Query(ctx, 1, 2, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	gen.Add(1)
	_, cached, err := qp.Query(ctx, 1, 2, routing.Options{})
	if err != nil || cached {
		t.Fatalf("post-invalidation query: %v cached=%v", err, cached)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2", got)
	}
}

func TestQuerySingleflightDedup(t *testing.T) {
	cc := &countingCompute{block: make(chan struct{})}
	qp, _ := newPlane(t, cc)
	resizePool(qp, 4, 64)
	ctx := context.Background()

	const n = 16
	// Hold the leader in Compute until every other query has joined its
	// flight: one released earlier would fill the cache, and late arrivals
	// would count as hits instead of dedups.
	joined := make(chan struct{}, n-1)
	qp.flights.joined = func() { joined <- struct{}{} }
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = qp.Query(ctx, 7, 8, routing.Options{})
		}(i)
	}
	for i := 0; i < n-1; i++ {
		<-joined
	}
	close(cc.block)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for identical concurrent queries, want 1", got)
	}
	if st := qp.Stats(); st.Dedup != n-1 {
		t.Fatalf("dedup = %d, want %d", st.Dedup, n-1)
	}
}

func TestQueryShedding(t *testing.T) {
	cc := &countingCompute{block: make(chan struct{})}
	qp, _ := newPlane(t, cc)
	resizePool(qp, 1, 1)
	ctx := context.Background()

	const n = 12
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys so singleflight can't absorb the load.
			_, _, err := qp.Query(ctx, i, 100+i, routing.Options{})
			if errors.Is(err, ErrShed) {
				shed.Add(1)
			}
		}(i)
	}
	// One query computes, one waits; the other ten must shed quickly.
	for shed.Load() < n-2 {
		time.Sleep(time.Millisecond)
	}
	close(cc.block)
	wg.Wait()
	if got := shed.Load(); got != n-2 {
		t.Fatalf("shed %d queries, want %d", got, n-2)
	}
	if st := qp.Stats(); st.Shed != uint64(n-2) {
		t.Fatalf("stats.Shed = %d", st.Shed)
	}
}

func TestQueryErrorNotCached(t *testing.T) {
	cc := &countingCompute{}
	cc.fail.Store(true)
	qp, _ := newPlane(t, cc)
	ctx := context.Background()
	if _, _, err := qp.Query(ctx, 1, 2, routing.Options{}); err == nil {
		t.Fatal("error swallowed")
	}
	cc.fail.Store(false)
	_, cached, err := qp.Query(ctx, 1, 2, routing.Options{})
	if err != nil || cached {
		t.Fatalf("error was cached: %v cached=%v", err, cached)
	}
	if st := qp.Stats(); st.Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Errors)
	}
}

func TestQueryTimeout(t *testing.T) {
	cc := &countingCompute{block: make(chan struct{})} // never closed
	qp, _ := newPlane(t, cc)
	qp.timeout = 20 * time.Millisecond
	_, _, err := qp.Query(context.Background(), 1, 2, routing.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestNewValidation(t *testing.T) {
	full := Config{
		Compute:    (&countingCompute{}).fn,
		Generation: func() uint64 { return 0 },
		Revalidate: func(*routing.Path, routing.Options, uint64) bool { return false },
	}
	for name, drop := range map[string]func(*Config){
		"Compute":    func(c *Config) { c.Compute = nil },
		"Generation": func(c *Config) { c.Generation = nil },
		"Revalidate": func(c *Config) { c.Revalidate = nil },
	} {
		cfg := full
		drop(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("nil %s accepted", name)
		}
	}
	qp, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(qp.cache.shards); got != cacheShards {
		t.Fatalf("shards = %d, want %d", got, cacheShards)
	}
	if workers := runtime.GOMAXPROCS(0); cap(qp.sem) != workers || qp.queueDepth != queuePerWorker*workers || qp.timeout != computeTimeout {
		t.Fatalf("pool = %d workers, depth %d, timeout %v", cap(qp.sem), qp.queueDepth, qp.timeout)
	}
}

func TestQueryParallelConsistency(t *testing.T) {
	// Hammer the plane from many goroutines with interleaved
	// invalidations; under -race this exercises every lock boundary.
	cc := &countingCompute{}
	qp, gen := newPlane(t, cc)
	qp.cache = NewCache(cacheShards, 128)
	// Pin pool sizing so single-core machines don't shed.
	resizePool(qp, 8, 64)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := (w*31+i)%64, 64+(w*17+i)%64
				if _, _, err := qp.Query(ctx, src, dst, routing.Options{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		gen.Add(1)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := qp.Stats()
	if st.Queries == 0 || st.Queries != st.Hits+st.Misses {
		t.Fatalf("counter imbalance: %+v", st)
	}
}

func TestSessionStore(t *testing.T) {
	s := NewSessionStore(4)
	for i := 1; i <= 100; i++ {
		s.Put(&ctrlplane.Session{ID: i, Bandwidth: float64(i)})
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
	sess, ok := s.Get(42)
	if !ok || sess.Bandwidth != 42 {
		t.Fatalf("get(42) = %+v, %v", sess, ok)
	}
	list := s.List()
	if len(list) != 100 || list[0].ID != 1 || list[99].ID != 100 {
		t.Fatalf("list len %d, first %d, last %d", len(list), list[0].ID, list[len(list)-1].ID)
	}
	if _, ok := s.Delete(42); !ok {
		t.Fatal("delete existing failed")
	}
	if _, ok := s.Delete(42); ok {
		t.Fatal("double delete succeeded")
	}
	if _, ok := s.Get(42); ok {
		t.Fatal("deleted session still readable")
	}
	if s.Len() != 99 {
		t.Fatalf("len after delete = %d", s.Len())
	}
}

func TestSessionStoreParallel(t *testing.T) {
	s := NewSessionStore(8)
	var wg sync.WaitGroup
	var deleted atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := w*200 + i
				s.Put(&ctrlplane.Session{ID: id})
				s.Get(id)
				if i%2 == 0 {
					if _, ok := s.Delete(id); ok {
						deleted.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := int64(s.Len()) + deleted.Load(); got != 8*200 {
		t.Fatalf("lost sessions: resident+deleted = %d, want %d", got, 8*200)
	}
}

// Cache misses split into cold (never computed) and invalidation-caused
// (entry existed but its generation was staled). The split must add up to
// the total miss count.
func TestMissSplitColdVsInvalidated(t *testing.T) {
	cc := &countingCompute{}
	qp, gen := newPlane(t, cc)
	ctx := context.Background()

	// Three cold misses.
	for i := 0; i < 3; i++ {
		if _, _, err := qp.Query(ctx, 1, 2+i, routing.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := qp.Stats()
	if st.MissesCold != 3 || st.MissesInvalidated != 0 {
		t.Fatalf("after cold misses: %+v", st)
	}

	// Stale two of them, leave the third untouched.
	gen.Add(1)
	for i := 0; i < 2; i++ {
		if _, cached, err := qp.Query(ctx, 1, 2+i, routing.Options{}); err != nil || cached {
			t.Fatalf("post-invalidation query: %v cached=%v", err, cached)
		}
	}
	st = qp.Stats()
	if st.MissesCold != 3 || st.MissesInvalidated != 2 {
		t.Fatalf("after invalidation misses: %+v", st)
	}
	// A brand-new pair after invalidation is still a cold miss.
	if _, _, err := qp.Query(ctx, 9, 10, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	st = qp.Stats()
	if st.MissesCold != 4 || st.MissesInvalidated != 2 {
		t.Fatalf("new pair after invalidation: %+v", st)
	}
	if st.MissesCold+st.MissesInvalidated != st.Misses {
		t.Fatalf("split does not sum to total: %+v", st)
	}
	// Hits are unaffected.
	if _, cached, err := qp.Query(ctx, 9, 10, routing.Options{}); err != nil || !cached {
		t.Fatalf("warm query: %v cached=%v", err, cached)
	}
}

func TestExternalGenerationRevalidation(t *testing.T) {
	cc := &countingCompute{}
	var gen, revalCalls atomic.Uint64
	var allow atomic.Bool
	gen.Store(1)
	allow.Store(true)
	qp, err := New(Config{
		Compute:    cc.fn,
		Generation: gen.Load,
		Revalidate: func(p *routing.Path, opts routing.Options, g uint64) bool {
			revalCalls.Add(1)
			if g != gen.Load() {
				t.Errorf("revalidate saw generation %d, want %d", g, gen.Load())
			}
			return allow.Load()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, cached, err := qp.Query(ctx, 1, 2, routing.Options{}); err != nil || cached {
		t.Fatalf("first query: %v cached=%v", err, cached)
	}

	// Epoch moves; the revalidator approves, so the stale entry is served
	// as a hit with no recompute.
	gen.Add(1)
	_, cached, err := qp.Query(ctx, 1, 2, routing.Options{})
	if err != nil || !cached {
		t.Fatalf("revalidated query: %v cached=%v", err, cached)
	}
	if got := cc.calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if got := revalCalls.Load(); got != 1 {
		t.Fatalf("revalidate ran %d times, want 1", got)
	}
	if st := qp.Stats(); st.HitsRevalidated != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Same generation again: a plain hit, no revalidation.
	if _, cached, _ := qp.Query(ctx, 1, 2, routing.Options{}); !cached {
		t.Fatal("re-stamped entry not a plain hit")
	}
	if got := revalCalls.Load(); got != 1 {
		t.Fatalf("revalidate ran on a fresh entry (%d calls)", got)
	}

	// Epoch moves and the revalidator rejects: recompute, counted as an
	// invalidation miss.
	gen.Add(1)
	allow.Store(false)
	if _, cached, err := qp.Query(ctx, 1, 2, routing.Options{}); err != nil || cached {
		t.Fatalf("rejected revalidation: %v cached=%v", err, cached)
	}
	if got := cc.calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2", got)
	}
	if st := qp.Stats(); st.MissesInvalidated != 1 || st.HitsRevalidated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := qp.Stats().Generation; got != gen.Load() {
		t.Fatalf("generation = %d, want the source's %d", got, gen.Load())
	}
}
