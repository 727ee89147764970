package main

import (
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: brokerset/cmd/brokerd
BenchmarkQueryUnderChurn-8   	 2201848	       517.7 ns/op
BenchmarkQueryUnderChurn-8   	 2105432	       534.5 ns/op
BenchmarkQueryPlaneHit/shards=4-8   	 5882352	       204.8 ns/op
BenchmarkSetupTeardown-8    	    3120	    372670 ns/op	  8123 B/op	     92 allocs/op
PASS
ok  	brokerset/cmd/brokerd	12.3s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]measurement{
		"BenchmarkQueryUnderChurn":        {ns: 517.7}, // best of the two -count runs
		"BenchmarkQueryPlaneHit/shards=4": {ns: 204.8},
		"BenchmarkSetupTeardown":          {ns: 372670, bytes: 8123, hasBytes: true},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, m := range want {
		if !reflect.DeepEqual(got[name], m) {
			t.Errorf("%s = %+v, want %+v", name, got[name], m)
		}
	}
}

func TestCheck(t *testing.T) {
	baseline := map[string]baselineEntry{
		"BenchmarkQueryUnderChurn":        {NsPerOp: 540},
		"BenchmarkQueryPlaneHit/shards=4": {NsPerOp: 60}, // measured 204.8 → 3.4x, regression
		"BenchmarkMissing":                {NsPerOp: 100},
	}
	measured, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	report, failed := check(baseline, measured, 2.0)
	if len(report) != 3 {
		t.Fatalf("report has %d lines, want 3:\n%s", len(report), strings.Join(report, "\n"))
	}
	wantFailed := []string{"BenchmarkMissing", "BenchmarkQueryPlaneHit/shards=4"}
	if len(failed) != len(wantFailed) {
		t.Fatalf("failed = %v, want %v", failed, wantFailed)
	}
	for i, name := range wantFailed {
		if failed[i] != name {
			t.Fatalf("failed = %v, want %v", failed, wantFailed)
		}
	}
	for _, line := range report {
		switch {
		case strings.Contains(line, "BenchmarkQueryUnderChurn") && !strings.HasPrefix(line, "ok"):
			t.Errorf("within-ratio benchmark not ok: %q", line)
		case strings.Contains(line, "BenchmarkMissing") && !strings.Contains(line, "not found"):
			t.Errorf("missing benchmark not reported as such: %q", line)
		}
	}

	// bytes_per_op is guarded by the same ratio and needs B/op in the output.
	for _, c := range []struct {
		name  string
		bytes float64
		fails bool
	}{
		{"BenchmarkSetupTeardown", 8000, false},
		{"BenchmarkSetupTeardown", 4000, true},  // 8123 B/op is 2.03x
		{"BenchmarkQueryUnderChurn", 100, true}, // run without -benchmem
	} {
		report, failed = check(map[string]baselineEntry{c.name: {NsPerOp: 1e6, BytesPerOp: c.bytes}}, measured, 2.0)
		if (len(failed) == 1) != c.fails || !strings.Contains(report[0], "B/op") {
			t.Errorf("%s guarded at %v B/op: failed = %v, report %q", c.name, c.bytes, failed, report)
		}
	}

	// A zero baseline is a config error, not a silent pass.
	_, failed = check(map[string]baselineEntry{"BenchmarkQueryUnderChurn": {}}, measured, 2.0)
	if len(failed) != 1 {
		t.Fatalf("zero baseline passed: %v", failed)
	}
}

// residentOutput is a resident-bytes rung's output: custom "-B" metrics
// beside ns/op, two -count runs, and a benchmark that reports none.
const residentOutput = `BenchmarkTable2Resident/flat-2         	       1	1712345678 ns/op	   4194304 ctrlplane-B	  61234567 live-B	     81234 queryplane-B	        12.00 sessions
BenchmarkTable2Resident/flat-2         	       1	1698765432 ns/op	   4194000 ctrlplane-B	  61300000 live-B	     80000 queryplane-B	        12.00 sessions
BenchmarkTable2Resident/regions=3-2    	       1	2712345678 ns/op	   9000000 ctrlplane-B	  90000000 live-B
BenchmarkTable2Boot-2                  	       1	 195000000 ns/op
`

// TestByteMetrics: custom units ending in -B parse per benchmark, best of the
// runs; a baseline entry guards them by the same ratio as ns/op and B/op, may
// leave ns_per_op out, and fails when a named metric — or the benchmark — is
// missing from the output.
func TestByteMetrics(t *testing.T) {
	measured, err := parseBench(strings.NewReader(residentOutput))
	if err != nil {
		t.Fatal(err)
	}
	wantFlat := map[string]float64{"ctrlplane-B": 4194000, "live-B": 61234567, "queryplane-B": 80000}
	if got := measured["BenchmarkTable2Resident/flat"].metrics; !reflect.DeepEqual(got, wantFlat) {
		t.Fatalf("flat metrics = %v, want %v (the best of two runs; sessions is not a byte unit)", got, wantFlat)
	}
	if got := measured["BenchmarkTable2Boot"].metrics; got != nil {
		t.Fatalf("a benchmark with no -B metric parsed %v", got)
	}

	for _, c := range []struct {
		name  string
		entry baselineEntry
		fails string // "" = passes; else a substring of the FAIL line
	}{
		{"within ratio, no ns_per_op", baselineEntry{Metrics: map[string]float64{"live-B": 60e6, "ctrlplane-B": 3e6}}, ""},
		{"one metric over", baselineEntry{Metrics: map[string]float64{"live-B": 60e6, "queryplane-B": 30000}}, "queryplane-B"},
		{"named metric missing", baselineEntry{Metrics: map[string]float64{"federation-B": 1e6}}, "federation-B not found"},
		{"time guarded too", baselineEntry{NsPerOp: 1e9, Metrics: map[string]float64{"live-B": 60e6}}, ""},
		{"time over", baselineEntry{NsPerOp: 5e8, Metrics: map[string]float64{"live-B": 60e6}}, "ns/op"},
		{"not a byte unit", baselineEntry{Metrics: map[string]float64{"sessions": 12}}, "unit ending in -B"},
	} {
		report, failed := check(map[string]baselineEntry{"BenchmarkTable2Resident/flat": c.entry}, measured, 2.0)
		switch {
		case c.fails == "" && (len(failed) != 0 || !strings.HasPrefix(report[0], "ok")):
			t.Errorf("%s: failed %v: %s", c.name, failed, report[0])
		case c.fails != "" && (len(failed) != 1 || !strings.Contains(report[0], c.fails)):
			t.Errorf("%s: want a FAIL naming %q, got failed %v: %s", c.name, c.fails, failed, report[0])
		}
	}
	_, failed := check(map[string]baselineEntry{"BenchmarkTable2Resident/gone": {Metrics: map[string]float64{"live-B": 1}}}, measured, 2.0)
	if len(failed) != 1 {
		t.Fatalf("a byte-guarded benchmark missing from the output passed")
	}
}

const churnOutput = `BenchmarkTable2ChurnPost 	      54	   5403495 ns/op	      6931 marked/op	      5996 scored/op	    251439 unions/op	 4093473 B/op	     216 allocs/op
BenchmarkTable2ChurnPost 	      54	   5660470 ns/op	      6931 marked/op	      5990 scored/op	    251439 unions/op	 4093522 B/op	     216 allocs/op
`

// TestCounts: custom units ending in /op parse as counts (B/op and
// allocs/op do not), best of the runs; an entry guards them at countRatio
// whatever -max-ratio says, and fails when one is missing.
func TestCounts(t *testing.T) {
	measured, err := parseBench(strings.NewReader(churnOutput))
	if err != nil {
		t.Fatal(err)
	}
	m := measured["BenchmarkTable2ChurnPost"]
	wantCounts := map[string]float64{"marked/op": 6931, "scored/op": 5990, "unions/op": 251439}
	if !reflect.DeepEqual(m.counts, wantCounts) || m.metrics != nil || m.bytes != 4093473 || m.ns != 5403495 {
		t.Fatalf("parsed %+v, want counts %v, no byte metrics, best B/op and ns/op", m, wantCounts)
	}
	for _, c := range []struct {
		name  string
		entry baselineEntry
		fails string
	}{
		{"within count ratio", baselineEntry{NsPerOp: 9.5e6, Counts: map[string]float64{"scored/op": 5800, "unions/op": 251439}}, ""},
		{"count over its ratio, time well inside max-ratio", baselineEntry{NsPerOp: 9.5e6, Counts: map[string]float64{"scored/op": 5600}}, "scored/op"},
		{"counts only", baselineEntry{Counts: map[string]float64{"marked/op": 6931}}, ""},
		{"count missing", baselineEntry{Counts: map[string]float64{"finds/op": 1}}, "finds/op not found"},
	} {
		report, failed := check(map[string]baselineEntry{"BenchmarkTable2ChurnPost": c.entry}, measured, 3.0)
		switch {
		case c.fails == "" && (len(failed) != 0 || !strings.HasPrefix(report[0], "ok")):
			t.Errorf("%s: failed %v: %s", c.name, failed, report[0])
		case c.fails != "" && (len(failed) != 1 || !strings.Contains(report[0], c.fails)):
			t.Errorf("%s: want a FAIL naming %q, got failed %v: %s", c.name, c.fails, failed, report[0])
		}
	}
}
