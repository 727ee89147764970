package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunInProcessSmoke drives the full in-process loadgen path on a small
// topology: flags parsed, plane built, workers run, report produced.
func TestRunInProcessSmoke(t *testing.T) {
	var out bytes.Buffer
	rep, err := run([]string{
		"-scale", "0.01", "-k", "20", "-c", "4", "-n", "400", "-d", "5s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 400 {
		t.Fatalf("requests = %d, want 400", rep.Requests)
	}
	if rep.QPS <= 0 {
		t.Fatalf("QPS = %f, want > 0", rep.QPS)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d, want 0", rep.Errors)
	}
	// Zipf demand repeats pairs, so the cache must land some hits; and a
	// rate above 1 would be nonsense.
	if rep.HitRate <= 0 || rep.HitRate > 1 {
		t.Fatalf("hit rate = %f, want in (0,1]", rep.HitRate)
	}
	if !strings.Contains(out.String(), "in-process") {
		t.Fatalf("missing banner in output:\n%s", out.String())
	}
}

// TestRunWithChurn exercises the churn-under-load path: the daemon's churn
// job applies and heals bursts while workers query, and the report carries
// availability and the repair quantiles of healer_repair_seconds.
func TestRunWithChurn(t *testing.T) {
	var out bytes.Buffer
	rep, err := run([]string{
		"-scale", "0.01", "-k", "20", "-c", "4", "-d", "1200ms",
		"-churn-every", "150ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChurnBursts == 0 {
		t.Fatal("no churn bursts recorded")
	}
	if rep.Availability <= 0 || rep.Availability > 1 {
		t.Fatalf("availability = %f, want in (0,1]", rep.Availability)
	}
	if rep.RepairP50 <= 0 || rep.RepairP95 < rep.RepairP50 {
		t.Fatalf("repair p95 %v < p50 %v", rep.RepairP95, rep.RepairP50)
	}
	// The control-plane line reads the daemon the bursts ran against.
	if !strings.Contains(out.String(), "ctrl:") {
		t.Fatalf("missing ctrl: line in output:\n%s", out.String())
	}
}

// TestRunSlowK checks -slow-k: the report ranks the K slowest requests
// with their trace IDs, and the per-plane span breakdown is printed for
// every traced slow request.
func TestRunSlowK(t *testing.T) {
	var out bytes.Buffer
	rep, err := run([]string{
		"-scale", "0.01", "-k", "20", "-c", "4", "-n", "300", "-d", "5s", "-slow-k", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Slowest) != 3 {
		t.Fatalf("got %d slow requests, want 3", len(rep.Slowest))
	}
	for i, s := range rep.Slowest {
		if s.Duration <= 0 {
			t.Fatalf("slow[%d] duration %v", i, s.Duration)
		}
		if i > 0 && s.Duration > rep.Slowest[i-1].Duration {
			t.Fatalf("slowest not sorted: %v after %v", s.Duration, rep.Slowest[i-1].Duration)
		}
		if s.TraceID == 0 {
			t.Fatalf("slow[%d] has no trace ID", i)
		}
	}
	text := out.String()
	if !strings.Contains(text, "slowest:") {
		t.Fatalf("report missing slowest section:\n%s", text)
	}
	// Each traced slow request gets a per-plane span-duration line.
	if got := strings.Count(text, "trace "); got != 3 {
		t.Fatalf("got %d per-plane trace lines, want 3:\n%s", got, text)
	}
	if !strings.Contains(text, "loadgen=") {
		t.Fatalf("per-plane breakdown missing loadgen spans:\n%s", text)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-zipf", "nope"}, &out); err == nil {
		t.Fatal("bad flag value accepted")
	}
	if _, err := run([]string{"-addr", "http://localhost:1", "-churn-every", "1s"}, &out); err == nil {
		t.Fatal("churn against remote target accepted")
	}
	if _, err := run([]string{"-churn-every", "1s", "-churn-events", "3"}, &out); err == nil {
		t.Fatal("-churn-events accepted: bursts are the daemon generator's")
	}
}

// TestRunEconFlagErrors: loadgen has no economics mode; the market runs
// offline as experiments ext-market. Each of the old mode's flags is an
// undefined flag, refused before anything boots.
func TestRunEconFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-econ", "price-shock"}, {"-econ-seed", "1"}, {"-econ-assert"}} {
		var out bytes.Buffer
		if _, err := run(args, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err %v, want an undefined flag", args, err)
		}
	}
}
