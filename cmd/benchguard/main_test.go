package main

import (
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
		if got[name] != m {
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
