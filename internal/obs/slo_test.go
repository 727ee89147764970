package obs

import (
	"strings"
	"testing"
	"time"
)

// The objective's target is chosen so the math is EXACT in float64: 0.96875
// leaves an error budget of 1/32 (a binary fraction), so burn = badRatio*32
// with no rounding. 45 bad of 100 burns at exactly 14.4 — the paging
// threshold — and 3 bad of 32 at exactly 3.0, the ticket threshold. A target
// like 0.99 involves 1-0.99, which is not exactly representable, making
// threshold-equality assertions off by one ulp.
const testTarget = 0.96875

func testEngine() (*SLOEngine, *SLOObjective) {
	e := NewSLOEngine(SLOConfig{BaseWindow: time.Hour})
	o := e.Add(Objective{Name: "api_quality", Target: testTarget})
	return e, o
}

func record(o *SLOObjective, good, bad int) {
	for i := 0; i < good; i++ {
		o.Record(true, 0)
	}
	for i := 0; i < bad; i++ {
		o.Record(false, uint64(i+1))
	}
}

// TestBurnRateFiresAtExactThreshold drives the engine with a synthetic
// clock and proves each alert fires exactly when the error-budget math says
// it must: 45 bad of 100 events is a burn of (45/100)/(1/32) = 14.4, meeting
// the fast pair's >= 14.4 on both its windows (and the slow pair's >= 3 with
// it); 3 bad of 32 is a burn of 3.0, meeting the slow pair's threshold and
// not the fast pair's.
func TestBurnRateFiresAtExactThreshold(t *testing.T) {
	for _, tc := range []struct {
		name       string
		good, bad  int
		burn       float64
		severities []AlertSeverity
	}{
		{"fast", 55, 45, fastBurn, []AlertSeverity{SeverityFast, SeveritySlow}},
		{"slow", 29, 3, slowBurn, []AlertSeverity{SeveritySlow}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, o := testEngine()
			t0 := time.Unix(1000, 0)
			if tr := e.Tick(t0); len(tr) != 0 {
				t.Fatalf("transitions before any events: %v", tr)
			}
			record(o, tc.good, tc.bad)
			// Both pairs see the whole (sub-window-aged) history.
			tr := e.Tick(t0.Add(time.Minute))
			if len(tr) != len(tc.severities) {
				t.Fatalf("want %v transitions, got %v", tc.severities, tr)
			}
			for i, x := range tr {
				if x.Severity != tc.severities[i] || !x.Firing {
					t.Errorf("transition %d = %s firing=%v, want %s firing", i, x.Severity, x.Firing, tc.severities[i])
				}
				if x.BurnLong != tc.burn || x.BurnShort != tc.burn {
					t.Errorf("%s burn = (%v, %v), want exactly %v", x.Severity, x.BurnLong, x.BurnShort, tc.burn)
				}
			}
			st := e.Status()
			if n := len(tc.severities); st.Firing != n || st.AlertsTotal != uint64(n) {
				t.Fatalf("status firing=%d alertsTotal=%d, want %d/%d", st.Firing, st.AlertsTotal, n, n)
			}
			if os := st.Objectives[0]; os.FastFiring != (len(tc.severities) == 2) || !os.SlowFiring {
				t.Fatalf("objective status %+v, want %v firing", os, tc.severities)
			}
		})
	}
}

// TestBurnRateOneEventBelowThreshold is the other half of the exactness
// claim: one fewer bad event must NOT fire — 44/100 (burn 14.08) leaves the
// fast pair quiet while the slow pair fires, 2/32 (burn 2.0) fires nothing.
func TestBurnRateOneEventBelowThreshold(t *testing.T) {
	e, o := testEngine()
	t0 := time.Unix(1000, 0)
	e.Tick(t0)
	record(o, 56, 44)
	if tr := e.Tick(t0.Add(time.Minute)); len(tr) != 1 || tr[0].Severity != SeveritySlow {
		t.Fatalf("44/100 bad: transitions %v, want the slow alert alone", tr)
	}
	if b := e.Status().Objectives[0].BurnFastLong; b >= fastBurn {
		t.Fatalf("burn %v >= threshold %v", b, fastBurn)
	}

	e, o = testEngine()
	e.Tick(t0)
	record(o, 30, 2)
	if tr := e.Tick(t0.Add(time.Minute)); len(tr) != 0 {
		t.Fatalf("2/32 bad fired: %v", tr)
	}
	if b := e.Status().Objectives[0].BurnSlowLong; b >= slowBurn {
		t.Fatalf("burn %v >= threshold %v", b, slowBurn)
	}
}

// TestBurnRateShortWindowResets proves the short window does its job: once
// the burn stops, the alert resolves as soon as the short window's baseline
// moves past the incident, even though the long window still contains it.
func TestBurnRateShortWindowResets(t *testing.T) {
	e, o := testEngine()
	t0 := time.Unix(1000, 0)
	e.Tick(t0)
	record(o, 55, 45)
	if tr := e.Tick(t0.Add(time.Minute)); len(tr) != 2 {
		t.Fatalf("alert did not fire: %v", tr)
	}
	// Incident over: a healthy stream arrives. At t0+10m the fast pair's
	// 5-minute short window baselines on the t0+1m snapshot and sees only
	// the 1000 good events (burn 0); the slow pair's 30-minute short window
	// still spans everything, but its burn is now (45/1100)*32 < 3.
	record(o, 1000, 0)
	tr := e.Tick(t0.Add(10 * time.Minute))
	if len(tr) != 2 {
		t.Fatalf("want fast+slow resolution, got %v", tr)
	}
	for _, x := range tr {
		if x.Firing {
			t.Errorf("%s still firing (burn long %v short %v)", x.Severity, x.BurnLong, x.BurnShort)
		}
	}
	if st := e.Status(); st.Firing != 0 || st.AlertsTotal != 2 {
		t.Fatalf("status firing=%d alertsTotal=%d, want 0/2", st.Firing, st.AlertsTotal)
	}
	// The fast long window (1h) still contains the incident: burn over it
	// must remain exactly (45/1100)*32 — the alert resolved because the
	// SHORT window cleared, not because history was forgotten.
	want := (45.0 / 1100.0) / (1 - testTarget)
	if b := e.Status().Objectives[0].BurnFastLong; b != want {
		t.Fatalf("long-window burn = %v, want %v", b, want)
	}
}

// TestBurnRateWindowIsolation: bad events confined to an old snapshot must
// not leak into a window whose baseline is newer than them.
func TestBurnRateWindowIsolation(t *testing.T) {
	e, o := testEngine()
	t0 := time.Unix(1000, 0)
	e.Tick(t0)
	record(o, 0, 100) // ancient disaster
	e.Tick(t0.Add(time.Minute))
	record(o, 400, 0)
	// t0+61m: the fast long window (1h) baselines on the t0+1m snapshot —
	// after the disaster — so its burn is exactly 0.
	e.Tick(t0.Add(61 * time.Minute))
	os := e.Status().Objectives[0]
	if os.BurnFastLong != 0 || os.BurnFastShort != 0 {
		t.Fatalf("fast burns = (%v, %v), want 0 (disaster aged out)", os.BurnFastLong, os.BurnFastShort)
	}
	// The slow long window (6h) still sees it: (100/500)*32 = 6.4.
	if want := (100.0 / 500.0) / (1 - testTarget); os.BurnSlowLong != want {
		t.Fatalf("slow long burn = %v, want %v", os.BurnSlowLong, want)
	}
}

func TestObjectiveLatencyClassification(t *testing.T) {
	e := NewSLOEngine(SLOConfig{})
	o := e.Add(Objective{Name: "q_lat", Target: 0.99, Latency: 5 * time.Millisecond})
	o.Observe(time.Millisecond, 1)      // good
	o.Observe(5*time.Millisecond, 2)    // good: boundary is inclusive
	o.Observe(6*time.Millisecond, 7)    // bad
	o.Observe(time.Second, 7)           // bad, duplicate trace
	o.Observe(100*time.Millisecond, 42) // bad
	if g, b := o.good.Load(), o.bad.Load(); g != 2 || b != 3 {
		t.Fatalf("good=%d bad=%d, want 2/3", g, b)
	}
	ids := o.BadTraceIDs()
	if len(ids) != 2 {
		t.Fatalf("bad traces %v, want deduped {7, 42}", ids)
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen[7] || !seen[42] {
		t.Fatalf("bad traces %v, want {7, 42}", ids)
	}
}

func TestSLOEngineAddPanics(t *testing.T) {
	e := NewSLOEngine(SLOConfig{})
	e.Add(Objective{Name: "a_b", Target: 0.5})
	for name, fn := range map[string]func(){
		"duplicate": func() { e.Add(Objective{Name: "a_b", Target: 0.5}) },
		"bad name":  func() { e.Add(Objective{Name: "Nope", Target: 0.5}) },
		"target 0":  func() { e.Add(Objective{Name: "z_x", Target: 0}) },
		"target 1":  func() { e.Add(Objective{Name: "z_y", Target: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSLOEngineMetrics checks the slo_* families a registered engine emits
// scrape as valid exposition and carry the evaluated state.
func TestSLOEngineMetrics(t *testing.T) {
	e, o := testEngine()
	reg := NewRegistry()
	e.RegisterMetrics(reg)
	t0 := time.Unix(1000, 0)
	e.Tick(t0)
	record(o, 55, 45)
	e.Tick(t0.Add(time.Minute))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"slo_api_quality_good_total 55",
		"slo_api_quality_bad_total 45",
		"slo_api_quality_burn_fast 14.4",
		"slo_api_quality_alert_state 2",
		"slo_alerts_firing 2",
		"slo_alert_transitions_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("slo exposition invalid: %v", err)
	}
}
