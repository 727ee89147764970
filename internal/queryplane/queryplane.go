// Package queryplane is the concurrent serving layer between the HTTP
// front-end and the routing engine: a sharded, generation-invalidated LRU
// cache of computed B-dominated paths, singleflight deduplication of
// concurrent identical queries, and a bounded worker pool with queue-full
// shedding so overload degrades into fast 429s instead of collapse. The
// paper's brokers answer E2E path queries for the whole client population;
// this package is what lets one broker daemon do that at a rate that
// scales with cores instead of being bounded by one Dijkstra at a time.
package queryplane

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"brokerset/internal/epoch"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// ErrShed is returned when the compute queue is full and the query was
// rejected to protect latency (HTTP layers should map it to 429).
var ErrShed = errors.New("queryplane: overloaded, query shed")

// ComputeFunc resolves a cache miss. Implementations must be safe for
// concurrent calls (the caller typically wraps the routing engine in a
// read lock) and should respect ctx cancellation for long computations.
type ComputeFunc func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error)

// Config wires a QueryPlane to the state it serves. Compute, Generation and
// Revalidate are required: the plane has one mode, keyed to an external
// generation — the topology epoch — and revalidating stale entries.
type Config struct {
	// Compute resolves cache misses.
	Compute ComputeFunc
	// Generation is the cache-generation source. Callers wire the topology
	// epoch here, so every snapshot publication stales the whole cache and
	// entries are keyed to the epoch they were computed under.
	Generation func() uint64
	// Revalidate is consulted on a stale cache entry before recomputing: it
	// reports whether the cached path is still servable under generation gen
	// and the query's constraints (callers walk the path against the current
	// epoch snapshot — O(hops) instead of a full search). A revalidated path
	// is feasible but not necessarily optimal for the new generation.
	Revalidate func(p *routing.Path, opts routing.Options, gen uint64) bool
}

// Serving-grade sizing, the values every deployment has run with. The worker
// pool is GOMAXPROCS wide and its wait queue queuePerWorker times that.
const (
	cacheShards    = 16
	cacheCapacity  = 65536
	queuePerWorker = 4
	computeTimeout = 2 * time.Second
)

// Stats is a point-in-time snapshot of the plane's counters.
type Stats struct {
	Queries uint64 `json:"queries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// MissesCold counts misses with no prior entry for the key;
	// MissesInvalidated counts misses caused by generation invalidation
	// (a stale entry was present). Cold + Invalidated == Misses.
	MissesCold        uint64 `json:"misses_cold"`
	MissesInvalidated uint64 `json:"misses_invalidated"`
	// HitsRevalidated counts hits served by re-stamping a stale entry
	// whose path checked out against the current generation (subset of
	// Hits).
	HitsRevalidated uint64 `json:"hits_revalidated"`
	// HitsDominated counts hits on a query with a bandwidth floor served
	// from the entry of the same query without it, whose path had the
	// bandwidth (subset of Hits).
	HitsDominated uint64        `json:"hits_dominated"`
	Dedup         uint64        `json:"dedup"`
	Shed          uint64        `json:"shed"`
	Errors        uint64        `json:"errors"`
	Evictions     uint64        `json:"evictions"`
	Inflight      int64         `json:"inflight"`
	Waiting       int64         `json:"waiting"`
	CacheEntries  int           `json:"cache_entries"`
	Generation    uint64        `json:"generation"`
	P50           time.Duration `json:"-"`
	P95           time.Duration `json:"-"`
	P99           time.Duration `json:"-"`
}

// QueryPlane serves path queries through the cache/singleflight/worker-pool
// stack. All methods are safe for concurrent use.
type QueryPlane struct {
	cfg     Config
	cache   *Cache
	flights flightGroup
	sem     chan struct{} // worker slots; cap(sem) is the pool size
	// queueDepth bounds callers waiting for a worker slot (beyond it queries
	// are shed with ErrShed); timeout is the per-query compute budget.
	queueDepth int
	timeout    time.Duration

	queries       atomic.Uint64
	hits          atomic.Uint64
	hitsReval     atomic.Uint64
	hitsDominated atomic.Uint64
	misses        atomic.Uint64
	missesCold    atomic.Uint64
	missesStale   atomic.Uint64
	dedup         atomic.Uint64
	shed          atomic.Uint64
	errs          atomic.Uint64
	inflight      atomic.Int64
	waiting       atomic.Int64
	hist          obs.Histogram
}

// New builds a QueryPlane at serving-grade sizing.
func New(cfg Config) (*QueryPlane, error) {
	if cfg.Compute == nil || cfg.Generation == nil || cfg.Revalidate == nil {
		return nil, fmt.Errorf("queryplane: Config.Compute, Generation and Revalidate are required")
	}
	return build(cfg), nil
}

func build(cfg Config) *QueryPlane {
	workers := runtime.GOMAXPROCS(0)
	return &QueryPlane{
		cfg:        cfg,
		cache:      NewCache(cacheShards, cacheCapacity),
		sem:        make(chan struct{}, workers),
		queueDepth: queuePerWorker * workers,
		timeout:    computeTimeout,
	}
}

// Over builds the plane that serves the snapshots pub publishes, which is
// every serving plane in the repository: a miss searches the current
// snapshot's frozen view (lock-free; a concurrent publish is a successor the
// search never observes, so the answer is a consistent single-epoch one), the
// cache generation is the epoch, and a stale entry is re-served only if its
// path checks out against the snapshot of the very epoch the lookup read —
// when a publish lands between the two the entry stays stale and the next
// query settles it, rather than being stamped with a generation it was not
// checked against.
func Over(pub *epoch.Publisher) *QueryPlane {
	return build(Config{
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return pub.Current().BestPath(src, dst, opts)
		},
		Generation: pub.Epoch,
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) bool {
			snap := pub.Current()
			return snap.ID() == gen && snap.PathValid(p, opts)
		},
	})
}

// Query answers a path query: cache hit, joined in-flight computation, or a
// fresh computation on the worker pool. cached reports a cache hit (the
// result was served without any computation on behalf of this caller).
func (q *QueryPlane) Query(ctx context.Context, src, dst int, opts routing.Options) (path *routing.Path, cached bool, err error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "queryplane.query")
	defer span.End()
	q.queries.Add(1)
	path, how, shared, err := q.answer(ctx, src, dst, opts, true)
	span.Annotate("cache", how.String())
	if how.hit() {
		q.hits.Add(1)
		if how == hitDominated {
			q.hitsDominated.Add(1)
		}
		q.hist.ObserveTrace(time.Since(start), obs.TraceIDFrom(ctx))
		return path, true, nil
	}
	q.misses.Add(1)
	if how == missStale {
		q.missesStale.Add(1)
	} else {
		q.missesCold.Add(1)
	}
	if shared {
		q.dedup.Add(1)
		span.Annotate("dedup", "joined")
	}
	switch {
	case err == nil:
		q.hist.ObserveTrace(time.Since(start), obs.TraceIDFrom(ctx))
	case errors.Is(err, ErrShed):
		q.shed.Add(1)
	default:
		q.errs.Add(1)
	}
	return path, false, err
}

// QueryBid is Query; the bid is ignored. Its one caller is
// cmd/benchsuite/stack.go, which the benchmark contract freezes, and the
// method goes when ROADMAP item 19 deletes that file.
func (q *QueryPlane) QueryBid(ctx context.Context, src, dst int, opts routing.Options, _ float64) (*routing.Path, bool, error) {
	return q.Query(ctx, src, dst, opts)
}

// Resolve answers a path query for an INTERNAL caller — the control
// plane's setup path resolving a route it is about to reserve. It shares
// the cache (including stale-entry revalidation, the O(hops) fast path
// that makes setup storms cheap: every commit publishes a new epoch, but
// an untouched path re-stamps instead of recomputing), constraint
// dominance and the singleflight dedup, but skips admission, the worker
// pool, and shedding: lifecycle traffic is already backpressured by the
// group-commit queue, so refusing it here would double-count the overload,
// and a miss computes inline on the caller's goroutine.
func (q *QueryPlane) Resolve(ctx context.Context, src, dst int, opts routing.Options) (path *routing.Path, cached bool, err error) {
	path, how, _, err := q.answer(ctx, src, dst, opts, false)
	return path, how.hit(), err
}

// outcome is how answer served a query.
type outcome uint8

const (
	missCold     outcome = iota // no entry for the key
	missStale                   // an entry existed but its generation was staled
	hitExact                    // served from the query's own entry
	hitDominated                // served from the entry of the same query without its bandwidth floor
)

var outcomeNames = [...]string{missCold: "cold", missStale: "stale", hitExact: "hit", hitDominated: "dominated"}

func (o outcome) String() string { return outcomeNames[o] }

// hit reports that no computation ran on behalf of the caller.
func (o outcome) hit() bool { return o >= hitExact }

// answer is the cache / singleflight / compute core under Query and Resolve.
//
// Constraint dominance: a query with a bandwidth floor whose own entry
// misses is answered through the same query with the floor removed, which
// goes through this function like any other query (cache, revalidation,
// singleflight, compute). That relaxed optimum is the exact optimum of the
// constrained query whenever every hop has the bandwidth — the constrained
// feasible set is a subset of the relaxed one and still contains it — and
// when the relaxed query has no path the constrained one has none either.
// Only a relaxed optimum short of bandwidth sends the query to its own
// computation. The bandwidth check is separate from the relaxed lookup: the
// relaxed entry is valid for its own query whatever this one finds, so a
// failed check neither drops nor re-stamps it.
func (q *QueryPlane) answer(ctx context.Context, src, dst int, opts routing.Options, pooled bool) (path *routing.Path, how outcome, shared bool, err error) {
	key := opts.CacheKey(src, dst)
	gen := q.cfg.Generation()
	p, ok, stale := q.lookup(key, gen, opts)
	if ok {
		return p, hitExact, false, nil
	}
	if stale {
		how = missStale
	}
	if opts.MinBandwidth > 0 {
		relaxed := opts
		relaxed.MinBandwidth = 0
		rp, rhow, rshared, err := q.answer(ctx, src, dst, relaxed, pooled)
		if err != nil {
			return nil, how, rshared, err
		}
		// Walked against the current link state, not read off rp.Bottleneck:
		// a re-stamped entry's Bottleneck is from the generation it was
		// computed under.
		if q.Servable(rp, opts, gen) {
			if rhow.hit() {
				how = hitDominated
			}
			return rp, how, rshared, nil
		}
	}
	path, shared, err = q.flights.do(flightKey{key: key, gen: gen}, func() (*routing.Path, error) {
		p, err := q.compute(ctx, src, dst, opts, pooled)
		if err != nil {
			return nil, err
		}
		// Stored under the pre-compute generation: if an invalidation
		// raced with the computation the entry reads as stale, never as
		// fresher than the state it was computed from.
		q.cache.Put(key, p, gen)
		return p, nil
	})
	return path, how, shared, err
}

// compute resolves a miss within the per-query budget; pooled callers take
// a worker slot first and may be shed.
func (q *QueryPlane) compute(ctx context.Context, src, dst int, opts routing.Options, pooled bool) (*routing.Path, error) {
	if pooled {
		if err := q.acquireSlot(ctx); err != nil {
			return nil, err
		}
		defer func() { <-q.sem }()
		q.inflight.Add(1)
		defer q.inflight.Add(-1)
	}
	ctx, cancel := context.WithTimeout(ctx, q.timeout)
	defer cancel()
	ctx, span := obs.StartSpan(ctx, "queryplane.compute")
	defer span.End()
	return q.cfg.Compute(ctx, src, dst, opts)
}

// Servable reports whether p may still be served to a query with opts whose
// lookup read generation gen: the question a stale cache entry has to pass to
// be re-stamped, and a relaxed optimum to answer a constrained query.
func (q *QueryPlane) Servable(p *routing.Path, opts routing.Options, gen uint64) bool {
	return q.cfg.Revalidate(p, opts, gen)
}

// lookup consults the cache, revalidating a stale entry before giving it up.
func (q *QueryPlane) lookup(key routing.QueryKey, gen uint64, opts routing.Options) (*routing.Path, bool, bool) {
	p, ok, stale, refreshed := q.cache.LookupRefresh(key, gen, func(p *routing.Path) bool {
		return q.Servable(p, opts, gen)
	})
	if refreshed {
		q.hitsReval.Add(1)
	}
	return p, ok, stale
}

// acquireSlot takes a worker slot, shedding when the wait queue is full.
func (q *QueryPlane) acquireSlot(ctx context.Context) error {
	select {
	case q.sem <- struct{}{}:
		return nil
	default:
	}
	if q.waiting.Add(1) > int64(q.queueDepth) {
		q.waiting.Add(-1)
		return ErrShed
	}
	defer q.waiting.Add(-1)
	select {
	case q.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfter estimates how long a shed caller should wait before retrying:
// roughly the time for the full wait queue to drain through the worker
// pool at the observed p95 compute latency, floored at one second (the
// HTTP Retry-After header has whole-second resolution).
func (q *QueryPlane) RetryAfter() time.Duration {
	p95 := q.hist.Quantile(0.95)
	if p95 <= 0 {
		p95 = q.timeout / 4
	}
	d := time.Duration(float64(p95) * float64(q.queueDepth) / float64(cap(q.sem)))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Exemplars returns the latency histogram's retained worst-observation
// exemplars — the trace IDs behind the slowest served queries — slowest
// first. Empty until a traced request lands in the extreme buckets.
func (q *QueryPlane) Exemplars() []obs.Exemplar { return q.hist.Exemplars() }

// Stats snapshots the counters and latency quantiles.
func (q *QueryPlane) Stats() Stats {
	return Stats{
		Queries:           q.queries.Load(),
		Hits:              q.hits.Load(),
		HitsRevalidated:   q.hitsReval.Load(),
		HitsDominated:     q.hitsDominated.Load(),
		Misses:            q.misses.Load(),
		MissesCold:        q.missesCold.Load(),
		MissesInvalidated: q.missesStale.Load(),
		Dedup:             q.dedup.Load(),
		Shed:              q.shed.Load(),
		Errors:            q.errs.Load(),
		Evictions:         q.cache.Evictions(),
		Inflight:          q.inflight.Load(),
		Waiting:           q.waiting.Load(),
		CacheEntries:      q.cache.Len(),
		Generation:        q.cfg.Generation(),
		P50:               q.hist.Quantile(0.50),
		P95:               q.hist.Quantile(0.95),
		P99:               q.hist.Quantile(0.99),
	}
}

// RegisterMetrics exposes the plane's counters and latency summary on reg
// under the queryplane_ namespace. The counters stay plain atomics on the
// hot path; the collector adapts them to samples at scrape time.
func (q *QueryPlane) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterHistogram("queryplane_latency_seconds", "served query latency (hits and computed misses)", &q.hist)
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		s := q.Stats()
		for _, m := range []struct {
			name, help string
			kind       obs.Kind
			val        float64
		}{
			{"queryplane_queries_total", "path queries received", obs.KindCounter, float64(s.Queries)},
			{"queryplane_hits_total", "queries served from cache", obs.KindCounter, float64(s.Hits)},
			{"queryplane_hits_revalidated_total", "stale entries re-served after snapshot revalidation", obs.KindCounter, float64(s.HitsRevalidated)},
			{"queryplane_hits_dominated_total", "bandwidth-constrained queries served from the unconstrained query's entry", obs.KindCounter, float64(s.HitsDominated)},
			{"queryplane_misses_total", "queries that required computation", obs.KindCounter, float64(s.Misses)},
			{"queryplane_misses_cold_total", "misses with no prior cache entry", obs.KindCounter, float64(s.MissesCold)},
			{"queryplane_misses_invalidated_total", "misses caused by generation invalidation", obs.KindCounter, float64(s.MissesInvalidated)},
			{"queryplane_dedup_total", "queries joined to an in-flight computation", obs.KindCounter, float64(s.Dedup)},
			{"queryplane_shed_total", "queries shed under overload", obs.KindCounter, float64(s.Shed)},
			{"queryplane_errors_total", "queries that failed", obs.KindCounter, float64(s.Errors)},
			{"queryplane_evictions_total", "cache entries evicted", obs.KindCounter, float64(s.Evictions)},
			{"queryplane_inflight", "computations currently running", obs.KindGauge, float64(s.Inflight)},
			{"queryplane_waiting", "callers queued for a worker slot", obs.KindGauge, float64(s.Waiting)},
			{"queryplane_cache_entries", "entries currently cached", obs.KindGauge, float64(s.CacheEntries)},
			{"queryplane_cache_generation", "current cache generation", obs.KindGauge, float64(s.Generation)},
		} {
			emit(obs.Sample{Name: m.name, Help: m.help, Kind: m.kind, Value: m.val})
		}
	})
}
