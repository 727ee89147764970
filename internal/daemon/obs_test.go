package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"brokerset/internal/obs"
)

// TestMetricsPrometheusExposition asserts the default /metrics output is
// valid Prometheus text exposition covering every instrumented subsystem.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := testServer(t)

	// Generate some traffic so counters move.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/path?src=0&dst=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v", err)
	}
	out := string(body)
	for _, want := range []string{
		"queryplane_queries_total",
		"queryplane_latency_seconds{quantile=\"0.5\"}",
		"ctrlplane_commits_total",
		"transport_sent_total",
		"healer_heal_passes_total",
		"http_requests_total",
		"process_goroutines",
		"process_heap_bytes",
		"process_gc_cycles_total",
		"process_gc_pause_seconds_count",
		"process_heap_live_bytes",
		"process_heap_goal_bytes",
		"process_sched_latency_seconds_count",
		"ctrlplane_wal_records",
		"ctrlplane_wal_checkpoints_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The text form is the only one: naming it is fine, anything else is not.
	for format, want := range map[string]int{"prometheus": http.StatusOK, "json": http.StatusBadRequest, "xml": http.StatusBadRequest} {
		r2, err := http.Get(ts.URL + "/metrics?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != want {
			t.Errorf("format=%s status %d, want %d", format, r2.StatusCode, want)
		}
	}
}

// TestTraceMiddleware asserts the middleware mints and echoes trace IDs,
// adopts a caller-supplied X-Trace-ID, and that a traced /path request's
// spans reach the query plane and export as a Chrome trace.
func TestTraceMiddleware(t *testing.T) {
	srv, ts := testServer(t)

	resp, err := http.Get(ts.URL + "/path?src=0&dst=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trace-ID") == "" {
		t.Fatal("response missing X-Trace-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/path?src=1&dst=6", nil)
	req.Header.Set("X-Trace-ID", "424242")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Trace-ID"); got != "424242" {
		t.Fatalf("echoed trace id = %q, want 424242", got)
	}
	spans := srv.tracer.Trace(424242)
	if len(spans) < 2 {
		t.Fatalf("adopted trace has %d spans, want root + queryplane", len(spans))
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	if !names["queryplane.query"] {
		t.Fatalf("trace did not reach the query plane: %v", names)
	}

	// Exported trace is Chrome trace-event JSON.
	r3, err := http.Get(ts.URL + "/debug/trace?trace=424242")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r3.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/trace not Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("exported %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

// TestSessionTracePropagation asserts a traced session setup's spans cover
// the control plane's 2PC.
func TestSessionTracePropagation(t *testing.T) {
	srv, ts := testServer(t)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sessions",
		strings.NewReader(`{"src":0,"dst":5,"gbps":1}`))
	req.Header.Set("X-Trace-ID", "777")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup status %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, s := range srv.tracer.Trace(777) {
		names[s.Name] = true
	}
	for _, want := range []string{"ctrlplane.commit_batch", "2pc.broadcast", "2pc.attempt", "2pc.send", "epoch.publish"} {
		if !names[want] {
			t.Fatalf("session trace missing %q spans: %v", want, names)
		}
	}
}

// TestDebugFlight dumps the flight recorder after a session setup and a
// lease expiry. Every event carries its wall time; Clock is a subsystem's
// virtual time, and brokerd has none, so no brokerd event carries a clock.
func TestDebugFlight(t *testing.T) {
	srv, ts := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: time.Hour})
	advance := leaseClock(srv)
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(`{"src":0,"dst":5,"gbps":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup status %d", resp.StatusCode)
	}
	advance(2 * time.Hour)
	if n := srv.sweepLeases(context.Background()); n != 1 {
		t.Fatalf("sweep released %d sessions, want 1", n)
	}
	srv.onSLOAlert(obs.AlertTransition{Objective: "query_latency", Severity: obs.SeverityFast})
	r2, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	body, _ := io.ReadAll(r2.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("flight dump has %d lines, want header + events", len(lines))
	}
	kinds := map[string]bool{}
	for _, ln := range lines[1:] {
		var e obs.FlightEvent
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("flight line not JSON: %v", err)
		}
		kinds[e.Kind] = true
		if e.Subsystem == "brokerd" && e.Clock != 0 {
			t.Errorf("brokerd %s event carries clock %d", e.Kind, e.Clock)
		}
	}
	for _, want := range []string{"send", "deliver", "decide", "session_expire", "slo_alert"} {
		if !kinds[want] {
			t.Fatalf("flight dump missing %q events: %v", want, kinds)
		}
	}
}

// TestPprofGate asserts /debug/pprof/ is absent by default and served when
// the -pprof flag enables it.
func TestPprofGate(t *testing.T) {
	_, ts := testServer(t) // Pprof off
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without the flag: status %d", resp.StatusCode)
	}

	_, on := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, Pprof: true})
	r2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with -pprof", r2.StatusCode)
	}
	body, _ := io.ReadAll(r2.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
