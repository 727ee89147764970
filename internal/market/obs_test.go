package market

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"brokerset/internal/obs"
)

// TestMetricsScrapeRoundTrip registers the economics plane on a registry,
// drives price/admission/settlement state, and verifies the Prometheus
// exposition both validates and carries the exact values back out — the
// price gauge and the settlement counters round-trip through a scrape.
func TestMetricsScrapeRoundTrip(t *testing.T) {
	p, err := NewPlane(Config{DemandRef: 64}, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, adm, set := p.Ctrl, p.Adm, p.Set
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	if _, err := p.Tick(Sample{Utilization: 0.4, Demand: 80}); err != nil {
		t.Fatal(err)
	}
	adm.Admit(ctrl.Price() * 2) // pays the posted price
	adm.Admit(0)                // free rider
	set.Record([]int32{1, 2}, 2)
	p.Settle()

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("market exposition invalid: %v\n%s", err, text)
	}

	// Read the samples back out of the exposition: "name value" lines.
	vals := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if vals[name], err = strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
		}
	}
	if got := vals["market_price_units"]; got != ctrl.Price() {
		t.Fatalf("scraped price %g != live price %g", got, ctrl.Price())
	}
	if got := vals["market_admitted_total"]; got != 2 {
		t.Fatalf("market_admitted_total = %g, want 2", got)
	}
	if got := vals["market_admitted_free_total"]; got != 1 {
		t.Fatalf("market_admitted_free_total = %g, want 1", got)
	}
	if got := vals["market_settlements_total"]; got != 1 {
		t.Fatalf("market_settlements_total = %g, want 1", got)
	}
	rec, ok := set.LastRecord()
	if !ok {
		t.Fatal("no settlement record")
	}
	if got := vals["market_settlement_last_revenue_units"]; math.Abs(got-rec.Revenue) > 1e-12 {
		t.Fatalf("scraped settlement revenue %g != ledger %g", got, rec.Revenue)
	}
	if got := vals["market_reprices_total"]; got != 1 {
		t.Fatalf("market_reprices_total = %g, want 1", got)
	}

	// Every exported family passes the repo's naming gate and appears in
	// the text exposition.
	for _, fam := range []string{
		"market_price_units", "market_price_base_units", "market_congestion_multiplier",
		"market_utilization_ratio", "market_reprices_total", "market_admitted_total",
		"market_price_rejected_total", "market_revenue_units_total",
		"market_settlements_total", "market_settlement_last_revenue_units",
	} {
		if err := obs.CheckName(fam); err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
		if !strings.Contains(text, "\n"+fam+" ") && !strings.HasPrefix(text, fam+" ") &&
			!strings.Contains(text, "\n# HELP "+fam+" ") {
			t.Fatalf("family %s missing from exposition:\n%s", fam, text)
		}
	}
}
