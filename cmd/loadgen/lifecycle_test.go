package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunLifecycleAbandon drives the -abandon scenario end to end: workers
// set up leased sessions, half walk away without tearing down, and the run
// itself asserts reserved capacity is back at baseline within 2x TTL — a
// non-nil error here means the plane leaked abandoned capacity.
func TestRunLifecycleAbandon(t *testing.T) {
	var out bytes.Buffer
	_, err := run([]string{
		"-abandon", "0.5", "-lease-ttl", "120ms",
		"-scale", "0.01", "-k", "20", "-c", "4", "-d", "600ms",
	}, &out)
	if err != nil {
		t.Fatalf("lifecycle run failed: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "lifecycle scenario") {
		t.Fatalf("missing banner:\n%s", s)
	}
	if !strings.Contains(s, "back at baseline") {
		t.Fatalf("missing baseline-recovery line:\n%s", s)
	}
	// With -abandon 0.5 over a 600ms run some sessions must actually have
	// been abandoned and then reclaimed by lease expiry, or the scenario
	// exercised nothing.
	if strings.Contains(s, "(0 abandoned") {
		t.Fatalf("no sessions abandoned:\n%s", s)
	}
	if strings.Contains(s, "0 lease expiries") {
		t.Fatalf("no lease expiries recorded:\n%s", s)
	}
}

// TestRunLifecycleFlagErrors pins the scenario's exclusivity and range
// checks.
func TestRunLifecycleFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-abandon", "0.5", "-addr", "http://localhost:1"}, &out); err == nil {
		t.Fatal("-abandon with -addr accepted")
	}
	if _, err := run([]string{"-abandon", "1.5"}, &out); err == nil {
		t.Fatal("-abandon > 1 accepted")
	}
}
