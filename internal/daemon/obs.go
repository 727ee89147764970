package daemon

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
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

	s.registerEconCollectors()
	s.httpReqs = s.reg.Counter("http_requests_total", "HTTP requests served")
	s.httpHist = s.reg.Histogram("http_request_seconds", "HTTP request latency")
	s.reg.RegisterCollector(func(emit func(obs.Sample)) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		emit(obs.Sample{Name: "process_goroutines", Help: "live goroutines", Kind: obs.KindGauge, Value: float64(runtime.NumGoroutine())})
		emit(obs.Sample{Name: "process_heap_bytes", Help: "heap in use", Kind: obs.KindGauge, Value: float64(ms.HeapInuse)})
	})
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
// feeds the request counter and latency histogram.
func (s *Daemon) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tid uint64
		if v := r.Header.Get("X-Trace-ID"); v != "" {
			tid, _ = strconv.ParseUint(v, 10, 64)
		}
		ctx, span := s.tracer.Root(r.Context(), "http "+r.Method+" "+r.URL.Path, tid)
		w.Header().Set("X-Trace-ID", strconv.FormatUint(span.TraceID, 10))
		next.ServeHTTP(w, r.WithContext(ctx))
		span.End()
		s.httpReqs.Inc()
		s.httpHist.Observe(time.Since(start))
	})
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
