package daemon

import (
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"brokerset/internal/obs"
)

// initObs wires the unified observability layer: one metrics registry fed
// by scrape-time collectors over every subsystem's existing counters, a
// request tracer whose IDs the HTTP middleware mints, and a flight
// recorder attached to the control plane. Called from New once the planes
// it collects from exist.
func (s *Daemon) initObs() {
	s.reg = obs.NewRegistry()
	s.tracer = obs.NewTracer(4096)
	s.flight = obs.NewFlightRecorder(4096)
	s.plane.SetFlightRecorder(s.flight)

	s.qp.RegisterMetrics(s.reg)
	s.commit.registerMetrics(s.reg)
	s.registerLeaseMetrics(s.reg)
	// The control plane is not internally synchronized; its collector
	// snapshots under the write mutex that orders control-plane mutations.
	s.plane.RegisterMetrics(s.reg, &s.writeMu)
	s.healer.Metrics.RegisterMetrics(s.reg)
	// Epoch gauge, publish counter, and snapshot-age histogram, plus the
	// per-epoch-cached connectivity as a scrape-time sample.
	s.pub.RegisterMetrics(s.reg)
	s.reg.RegisterCollector(func(emit func(obs.Sample)) {
		emit(obs.Sample{
			Name: "brokerd_connectivity_ratio",
			Help: "saturated connectivity of the current snapshot's coalition",
			Kind: obs.KindGauge, Value: s.pub.Current().Connectivity(),
		})
	})

	s.httpReqs = s.reg.Counter("http_requests_total", "HTTP requests served")
	s.httpHist = s.reg.Histogram("http_request_seconds", "HTTP request latency")
	s.registerProcessMetrics()
}

// registerProcessMetrics exports the runtime's own figures from
// runtime/metrics, which reads them without stopping the world (as
// runtime.ReadMemStats does on every call): goroutines, the heap in use, the
// heap the last GC marked live and the goal it set for the next one, GC
// cycles, and the GC pause and scheduling-latency distributions. The runtime
// keeps pauses and latencies as cumulative histograms; each scrape feeds what
// they gained since the last one into process_gc_pause_seconds and
// process_sched_latency_seconds (histDelta).
func (s *Daemon) registerProcessMetrics() {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	pauses := histDelta{to: s.reg.Histogram("process_gc_pause_seconds", "stop-the-world GC pauses")}
	latencies := histDelta{to: s.reg.Histogram("process_sched_latency_seconds", "time goroutines spent runnable before they ran")}
	var mu sync.Mutex
	s.reg.RegisterCollector(func(emit func(obs.Sample)) {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(samples)
		pauses.feed(samples[3].Value.Float64Histogram())
		latencies.feed(samples[6].Value.Float64Histogram())
		emit(obs.Sample{Name: "process_goroutines", Help: "live goroutines", Kind: obs.KindGauge, Value: float64(runtime.NumGoroutine())})
		emit(obs.Sample{Name: "process_heap_bytes", Help: "heap in use", Kind: obs.KindGauge,
			Value: float64(samples[0].Value.Uint64() + samples[1].Value.Uint64())})
		emit(obs.Sample{Name: "process_heap_live_bytes", Help: "heap the last GC marked live", Kind: obs.KindGauge, Value: float64(samples[4].Value.Uint64())})
		emit(obs.Sample{Name: "process_heap_goal_bytes", Help: "heap size at which the next GC starts", Kind: obs.KindGauge, Value: float64(samples[5].Value.Uint64())})
		emit(obs.Sample{Name: "process_gc_cycles_total", Help: "completed GC cycles", Kind: obs.KindCounter, Value: float64(samples[2].Value.Uint64())})
	})
}

// histDelta feeds a runtime cumulative histogram into an obs histogram: each
// feed observes what a bucket gained since the last one, as that many events
// at the bucket's upper bound (its lower one for the unbounded last bucket).
type histDelta struct {
	to       *obs.Histogram
	observed []uint64 // per-bucket counts already fed
}

func (d *histDelta) feed(h *metrics.Float64Histogram) {
	if d.observed == nil {
		d.observed = make([]uint64, len(h.Counts))
	}
	for i, n := range h.Counts {
		hi := h.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = h.Buckets[i]
		}
		if n > d.observed[i] {
			d.to.ObserveN(time.Duration(hi*float64(time.Second)), n-d.observed[i])
			d.observed[i] = n
		}
	}
}

// Handler is the daemon's HTTP face: the route mux wrapped in the
// tracing/metrics middleware, with the net/http/pprof profiling endpoints
// only when Pprof is set (profiling handlers on a routing daemon are debug
// surface).
func (s *Daemon) Handler() http.Handler {
	mux := s.routes()
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// instrument is the HTTP middleware: it mints (or adopts from the
// X-Trace-ID request header) a trace ID, roots a span the downstream
// planes extend via context, echoes the ID back in the response, and
// feeds the request counter and, with the root span's duration, the latency
// histogram. Headers go by their canonical keys (X-Trace-Id), as net/http
// stores them, so neither read nor write canonicalises.
func (s *Daemon) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tid uint64
		if v := r.Header["X-Trace-Id"]; len(v) > 0 {
			tid, _ = strconv.ParseUint(v[0], 10, 64)
		}
		ctx, span := s.tracer.Root(r.Context(), spanName(r), tid)
		w.Header()["X-Trace-Id"] = []string{strconv.FormatUint(span.TraceID, 10)}
		next.ServeHTTP(w, r.WithContext(ctx))
		span.End()
		s.httpReqs.Inc()
		s.httpHist.Observe(span.Duration)
	})
}

// spanName names a request's root span; the hot route's name is a constant.
func spanName(r *http.Request) string {
	if r.Method == http.MethodGet && r.URL.Path == "/path" {
		return "http GET /path"
	}
	return "http " + r.Method + " " + r.URL.Path
}

// handleDebugTrace exports the tracer ring: Chrome trace-event JSON by
// default (load it in Perfetto or chrome://tracing), JSONL with
// ?format=jsonl, optionally filtered to one trace with ?trace=ID.
func (s *Daemon) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.tracer.Spans()
	if v := r.URL.Query().Get("trace"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "trace must be a uint64 trace id")
			return
		}
		spans = s.tracer.Trace(id)
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, spans)
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		_ = obs.WriteJSONL(w, spans)
	default:
		writeError(w, http.StatusBadRequest, "format must be chrome or jsonl")
	}
}

// handleDebugFlight dumps the flight recorder as JSONL (header line plus
// the recent control-plane events).
func (s *Daemon) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.flight.Dump(w, map[string]any{"source": "brokerd"})
}
