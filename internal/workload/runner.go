package workload

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"brokerset/internal/obs"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// Outcome describes how one query resolved.
type Outcome struct {
	// Cached reports the query was served from the path cache.
	Cached bool
	// Found reports a path existed (false = clean "no dominated path").
	Found bool
	// Shed reports the server rejected the query under overload (429) and
	// the retry budget, if any, was exhausted.
	Shed bool
	// Retries counts 429-triggered re-issues of this query (each after
	// honoring the server's Retry-After, bounded by the target's cap).
	Retries int
	// ShedRegion names the federation region whose query plane shed the
	// request; -1 means local/unknown. Only meaningful when Shed is true.
	ShedRegion int
	// TraceID is the distributed trace the query ran under (0 = untraced):
	// the X-Trace-ID response header over HTTP, or the root span minted by
	// an in-process target's tracer.
	TraceID uint64
}

// Target answers one path query. Implementations must be safe for
// concurrent use by many workers.
type Target interface {
	Query(src, dst int32) (Outcome, error)
}

// Config parameterizes a closed-loop run.
type Config struct {
	// Concurrency is the number of synchronous workers. Default 8.
	Concurrency int
	// Duration bounds the run in wall time (default 5s) unless Requests
	// is set.
	Duration time.Duration
	// Requests, when > 0, bounds the run by total request count instead
	// of duration.
	Requests int
	// Zipf is the demand exponent passed to NewPairGen. Default 1.1.
	Zipf float64
	// Seed derives per-worker generator seeds.
	Seed int64
	// SlowK, when > 0, retains the K slowest requests (with their trace
	// IDs) in Report.Slowest — the client-side path from a bad latency
	// number to the exact traces behind it.
	SlowK int
}

// Report summarizes a closed-loop run.
type Report struct {
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	Shed     int `json:"shed"`
	// ShedByRegion breaks Shed down by the federation region that refused
	// (key -1 collects local/unknown sheds); empty on non-federated runs.
	ShedByRegion map[int]int   `json:"shed_by_region,omitempty"`
	Retries      int           `json:"retries"`
	NotFound     int           `json:"not_found"`
	Hits         int           `json:"cache_hits"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	QPS          float64       `json:"qps"`
	HitRate      float64       `json:"hit_rate"`
	P50          time.Duration `json:"p50_ns"`
	P95          time.Duration `json:"p95_ns"`
	P99          time.Duration `json:"p99_ns"`

	// Churn-under-load fields (filled by loadgen -churn-every from the
	// daemon's healer; zero otherwise). ChurnBursts counts churn bursts;
	// Availability is the fraction of requests that resolved normally (found
	// a path or were cleanly shed) rather than failing because healing was in
	// flight — on a topology whose baseline connectivity is ~1, no-path and
	// error outcomes during a churn run are healing-induced.
	// RepairP50/RepairP95 summarize the heal-pass durations
	// (healer_repair_seconds).
	ChurnBursts  int           `json:"churn_bursts,omitempty"`
	Availability float64       `json:"availability,omitempty"`
	RepairP50    time.Duration `json:"repair_p50_ns,omitempty"`
	RepairP95    time.Duration `json:"repair_p95_ns,omitempty"`

	// Slowest holds the run's K slowest requests, slowest first (empty
	// unless Config.SlowK was set).
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest identifies one of the run's slowest requests.
type SlowRequest struct {
	Src      int32         `json:"src"`
	Dst      int32         `json:"dst"`
	Duration time.Duration `json:"duration_ns"`
	TraceID  uint64        `json:"trace_id,omitempty"`
}

// insertSlow keeps slow as the top-k requests by duration, unordered.
func insertSlow(slow []SlowRequest, r SlowRequest, k int) []SlowRequest {
	if len(slow) < k {
		return append(slow, r)
	}
	min := 0
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration < slow[min].Duration {
			min = i
		}
	}
	if slow[min].Duration < r.Duration {
		slow[min] = r
	}
	return slow
}

// String renders the report in loadgen's human output format.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d (errors %d, shed %d, retries %d, no-path %d)\n", r.Requests, r.Errors, r.Shed, r.Retries, r.NotFound)
	fmt.Fprintf(&b, "elapsed:  %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "qps:      %.1f\n", r.QPS)
	fmt.Fprintf(&b, "hit rate: %.1f%%\n", 100*r.HitRate)
	fmt.Fprintf(&b, "latency:  p50 %v  p95 %v  p99 %v",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if len(r.ShedByRegion) > 0 {
		regions := make([]int, 0, len(r.ShedByRegion))
		for reg := range r.ShedByRegion {
			regions = append(regions, reg)
		}
		sort.Ints(regions)
		b.WriteString("\nshed by:  ")
		for i, reg := range regions {
			if i > 0 {
				b.WriteString("  ")
			}
			if reg < 0 {
				fmt.Fprintf(&b, "local=%d", r.ShedByRegion[reg])
			} else {
				fmt.Fprintf(&b, "region%d=%d", reg, r.ShedByRegion[reg])
			}
		}
	}
	if r.ChurnBursts > 0 {
		fmt.Fprintf(&b, "\nchurn:    %d bursts, availability %.2f%%, repair p50 %v p95 %v",
			r.ChurnBursts, 100*r.Availability,
			r.RepairP50.Round(time.Microsecond), r.RepairP95.Round(time.Microsecond))
	}
	if len(r.Slowest) > 0 {
		b.WriteString("\nslowest:")
		for _, s := range r.Slowest {
			fmt.Fprintf(&b, "\n  %-12v %d->%d", s.Duration.Round(time.Microsecond), s.Src, s.Dst)
			if s.TraceID != 0 {
				fmt.Fprintf(&b, "  trace=%d", s.TraceID)
			}
		}
	}
	return b.String()
}

// pairSource builds one demand generator per worker so workers never
// contend on a shared RNG.
type pairSource func(worker int) (*PairGen, error)

// Run drives target with cfg.Concurrency closed-loop workers: each worker
// repeatedly draws a pair, issues the query, and records the latency into
// a shared obs.Histogram — the same bucket layout and quantile math
// brokerd's /metrics summaries use, so client-side and server-side
// latency numbers are directly comparable.
func Run(target Target, newGen pairSource, cfg Config) (*Report, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	type workerStats struct {
		requests, errors, shed, retries, notFound, hits int
		shedBy                                          map[int]int
		slow                                            []SlowRequest
	}
	var (
		wg      sync.WaitGroup
		stats   = make([]workerStats, cfg.Concurrency)
		hist    obs.Histogram
		budget  chan struct{} // request-count budget, nil when duration-bound
		useBudg = cfg.Requests > 0
	)
	if useBudg {
		budget = make(chan struct{}, cfg.Requests)
		for i := 0; i < cfg.Requests; i++ {
			budget <- struct{}{}
		}
		close(budget)
	}
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	for w := 0; w < cfg.Concurrency; w++ {
		gen, err := newGen(w)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, gen *PairGen) {
			defer wg.Done()
			st := &stats[w]
			for {
				if useBudg {
					if _, ok := <-budget; !ok {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				src, dst := gen.Pair()
				t0 := time.Now()
				out, err := target.Query(src, dst)
				d := time.Since(t0)
				hist.Observe(d)
				if cfg.SlowK > 0 {
					st.slow = insertSlow(st.slow, SlowRequest{Src: src, Dst: dst, Duration: d, TraceID: out.TraceID}, cfg.SlowK)
				}
				st.requests++
				st.retries += out.Retries
				switch {
				case err != nil:
					st.errors++
				case out.Shed:
					st.shed++
					if st.shedBy == nil {
						st.shedBy = make(map[int]int)
					}
					st.shedBy[out.ShedRegion]++
				case !out.Found:
					st.notFound++
				case out.Cached:
					st.hits++
				}
			}
		}(w, gen)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Elapsed: elapsed}
	shedBy := make(map[int]int)
	federated := false
	var slow []SlowRequest
	for i := range stats {
		for _, s := range stats[i].slow {
			slow = insertSlow(slow, s, cfg.SlowK)
		}
		rep.Requests += stats[i].requests
		rep.Errors += stats[i].errors
		rep.Shed += stats[i].shed
		rep.Retries += stats[i].retries
		rep.NotFound += stats[i].notFound
		rep.Hits += stats[i].hits
		for reg, n := range stats[i].shedBy {
			shedBy[reg] += n
			if reg >= 0 {
				federated = true
			}
		}
	}
	// The per-region breakdown only appears when some shed actually named a
	// region — non-federated runs keep the old flat report shape.
	if federated {
		rep.ShedByRegion = shedBy
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].Duration > slow[j].Duration })
	rep.Slowest = slow
	if rep.Requests == 0 {
		return nil, fmt.Errorf("workload: no requests completed")
	}
	rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	rep.HitRate = float64(rep.Hits) / float64(rep.Requests)
	rep.P50, rep.P95, rep.P99 = hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99)

	return rep, nil
}

// PlaneTarget drives an in-process query plane directly (no HTTP).
type PlaneTarget struct {
	Plane *queryplane.QueryPlane
	Opts  routing.Options
	// Tracer, when non-nil, roots a trace per query so the plane's spans
	// (and the run's slowest-request table) carry trace IDs.
	Tracer *obs.Tracer
}

// Query implements Target.
func (t *PlaneTarget) Query(src, dst int32) (Outcome, error) {
	ctx := context.Background()
	var trace uint64
	if t.Tracer != nil {
		var span *obs.Span
		ctx, span = t.Tracer.Root(ctx, "loadgen.query", 0)
		trace = span.TraceID
		defer span.End()
	}
	_, cached, err := t.Plane.Query(ctx, int(src), int(dst), t.Opts)
	if err != nil {
		switch {
		case errors.Is(err, queryplane.ErrShed):
			return Outcome{Shed: true, ShedRegion: -1, TraceID: trace}, nil
		// A clean routing miss is a valid outcome, not a target failure.
		case errors.Is(err, routing.ErrNoPath):
			return Outcome{TraceID: trace}, nil
		}
		return Outcome{TraceID: trace}, err
	}
	return Outcome{Cached: cached, Found: true, TraceID: trace}, nil
}

// HTTPTarget drives a live brokerd over its /path endpoint. Cache hits are
// detected from the X-Cache response header. 429 shed responses are
// retried up to MaxRetries times, honoring the server's Retry-After header
// bounded by MaxRetryWait per attempt.
type HTTPTarget struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// Path overrides the query endpoint (default "/path"; federated runs
	// point it at "/federation/path").
	Path string
	// Opts adds maxhops/minbw constraints to every query.
	Opts routing.Options
	// Client overrides http.DefaultClient (e.g. for timeouts).
	Client *http.Client
	// MaxRetries bounds 429-triggered retries per query (0 = give up
	// immediately, preserving the old count-a-shed behavior).
	MaxRetries int
	// MaxRetryWait caps the per-attempt wait regardless of what Retry-After
	// asks for (a load generator can't honor multi-second waits at full
	// offered load). Default 250ms when retries are enabled.
	MaxRetryWait time.Duration
}

// RetryShed is the shed-retry loop of every target that can be refused with a
// backoff hint: it issues attempt until the outcome is not a shed or
// maxRetries re-issues are spent, sleeping between attempts the wait the
// refuser advertised — capped at maxWait, which also stands in for a hint
// that is missing or not positive. attempt returns its outcome and that hint;
// the outcome handed back carries the re-issue count.
func RetryShed(maxRetries int, maxWait time.Duration, attempt func() (Outcome, time.Duration, error)) (Outcome, error) {
	for retries := 0; ; retries++ {
		out, wait, err := attempt()
		out.Retries = retries
		if err != nil || !out.Shed || retries >= maxRetries {
			return out, err
		}
		if wait <= 0 || wait > maxWait {
			wait = maxWait
		}
		time.Sleep(wait)
	}
}

// Query implements Target.
func (t *HTTPTarget) Query(src, dst int32) (Outcome, error) {
	q := url.Values{}
	q.Set("src", fmt.Sprint(src))
	q.Set("dst", fmt.Sprint(dst))
	if t.Opts.MaxHops > 0 {
		q.Set("maxhops", fmt.Sprint(t.Opts.MaxHops))
	}
	if t.Opts.MinBandwidth > 0 {
		q.Set("minbw", fmt.Sprint(t.Opts.MinBandwidth))
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	path := t.Path
	if path == "" {
		path = "/path"
	}
	u := t.Base + path + "?" + q.Encode()
	maxWait := t.MaxRetryWait
	if maxWait <= 0 {
		maxWait = 250 * time.Millisecond
	}
	return RetryShed(t.MaxRetries, maxWait, func() (Outcome, time.Duration, error) {
		resp, err := client.Get(u)
		if err != nil {
			return Outcome{}, 0, err
		}
		header := resp.Header
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		resp.Body.Close()
		// The server mints a trace per request and echoes its ID; retries
		// are separate requests, so the last attempt's trace wins.
		var out Outcome
		out.TraceID, _ = strconv.ParseUint(header.Get("X-Trace-ID"), 10, 64)
		switch resp.StatusCode {
		case http.StatusOK:
			out.Found, out.Cached = true, header.Get("X-Cache") == "hit"
		case http.StatusNotFound:
		case http.StatusTooManyRequests:
			// A federated 429 names the region that refused via X-Shed-Region;
			// a local shed (or a plain brokerd) leaves it unset.
			out.Shed, out.ShedRegion = true, -1
			if reg, err := strconv.Atoi(header.Get("X-Shed-Region")); err == nil {
				out.ShedRegion = reg
			}
			secs, _ := strconv.Atoi(strings.TrimSpace(header.Get("Retry-After")))
			return out, time.Duration(secs) * time.Second, nil
		default:
			return out, 0, fmt.Errorf("workload: %s status %d", path, resp.StatusCode)
		}
		return out, 0, nil
	})
}

// FetchServerStats scrapes a live brokerd's /metrics (Prometheus text) into
// name → value. Only unlabelled samples — the counters and gauges — are kept.
func FetchServerStats(base string, client *http.Client) (map[string]float64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: /metrics status %d", resp.StatusCode)
	}
	st := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsAny(name, "#{") {
			continue
		}
		if st[name], err = strconv.ParseFloat(val, 64); err != nil {
			return nil, fmt.Errorf("workload: /metrics sample %q: %w", sc.Text(), err)
		}
	}
	return st, sc.Err()
}
