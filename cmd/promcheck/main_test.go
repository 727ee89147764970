package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"brokerset/internal/obs"
)

// registryExposition renders a plain registry holding one family of each
// kind brokerd exports: a counter, a gauge and a histogram (a summary on the
// wire, whose children carry the base family's name with a suffix).
func registryExposition(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("queryplane_queries_total", "path queries received").Inc()
	reg.Gauge("queryplane_cache_entries", "entries currently cached").Set(3)
	reg.Histogram("queryplane_latency_seconds", "served query latency").Observe(2 * time.Millisecond)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPromcheckValidatesAndRequires(t *testing.T) {
	text := registryExposition(t)
	var out bytes.Buffer

	// Plain validation still works flag-free.
	if err := run(nil, strings.NewReader(text), &out); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}

	// Every kind round-trips through the scrape text; the histogram is
	// found through its _count/_sum/quantile children.
	err := run([]string{"-require",
		"queryplane_queries_total,queryplane_cache_entries,queryplane_latency_seconds"},
		strings.NewReader(text), &out)
	if err != nil {
		t.Fatalf("required families not found: %v", err)
	}

	// A missing family is named in the failure.
	err = run([]string{"-require", "queryplane_queries_total,queryplane_bogus_total"},
		strings.NewReader(text), &out)
	if err == nil || !strings.Contains(err.Error(), "queryplane_bogus_total") {
		t.Fatalf("missing family not reported: %v", err)
	}

	// A malformed family name fails the naming gate before presence.
	if err := run([]string{"-require", "Bad-Name"}, strings.NewReader(text), &out); err == nil {
		t.Fatal("invalid family name accepted")
	}
}

func TestPromcheckRejectsInvalidExposition(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("not a metric line {{{\n"), &out); err == nil {
		t.Fatal("invalid exposition accepted")
	}
}

// TestPromcheckSLOAndExemplars scrapes a registry carrying a burning SLO
// engine and a histogram with exemplars — the exact shape a brokerd
// booted with -slo-query-p99 exposes — and checks promcheck validates it
// and finds the slo_* families via -require.
func TestPromcheckSLOAndExemplars(t *testing.T) {
	reg := obs.NewRegistry()
	registerTestSLO(reg)
	h := reg.Histogram("queryplane_latency_seconds", "query latency")
	h.ObserveTrace(50*time.Millisecond, 77)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# EXEMPLAR queryplane_latency_seconds trace_id=77") {
		t.Fatalf("no exemplar annotation in scrape:\n%s", text)
	}
	var out bytes.Buffer
	if err := run([]string{"-require",
		"slo_query_latency_good_total,slo_query_latency_burn_fast,slo_query_latency_alert_state,slo_alerts_firing,queryplane_latency_seconds"},
		strings.NewReader(text), &out); err != nil {
		t.Fatalf("slo scrape failed promcheck: %v", err)
	}

	// A corrupted exemplar annotation must fail, not be skipped.
	bad := strings.Replace(text, "trace_id=77", "trace_id=bogus", 1)
	if err := run(nil, strings.NewReader(bad), &out); err == nil {
		t.Fatal("malformed exemplar accepted")
	}
}

// registerTestSLO registers a minimal engine with one recorded objective.
func registerTestSLO(reg *obs.Registry) {
	eng := obs.NewSLOEngine(obs.SLOConfig{BaseWindow: time.Minute})
	o := eng.Add(obs.Objective{Name: "query_latency", Target: 0.99, Latency: time.Millisecond})
	o.Observe(2*time.Millisecond, 9)
	o.Observe(time.Microsecond, 0)
	eng.Tick(time.Unix(1000, 0))
	eng.RegisterMetrics(reg)
}

func TestPromcheckHistogramChildrenSatisfyRequire(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("rpc_seconds", "request latency")
	h.Observe(1)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-require", "rpc_seconds"}, strings.NewReader(buf.String()), &out); err != nil {
		t.Fatalf("histogram base family not matched from children: %v", err)
	}
}
