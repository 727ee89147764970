package market

import (
	"math"
	"testing"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	ctrl, err := NewController(64)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// Congested reports whether the last reprice saw utilization at or above the
// congestion threshold: the state Admit branches on.
func (c *Controller) Congested() bool { return c.quote.Congested }

func TestControllerPrimesPositivePrice(t *testing.T) {
	ctrl := newTestController(t)
	if p := ctrl.Price(); p <= 0 {
		t.Fatalf("primed price = %g, want > 0", p)
	}
	if ctrl.Congested() {
		t.Fatal("controller congested before any reprice")
	}
}

func TestRepriceCongestionRaisesPrice(t *testing.T) {
	ctrl := newTestController(t)
	// Converge at calm utilization first.
	var calm Quote
	for i := 0; i < 40; i++ {
		q, err := ctrl.Reprice(Sample{Utilization: 0.2, Demand: 64})
		if err != nil {
			t.Fatal(err)
		}
		calm = q
	}
	if calm.Congested || calm.Multiplier != 1 {
		t.Fatalf("calm quote congested=%v mult=%g, want false/1", calm.Congested, calm.Multiplier)
	}
	// Saturate: multiplier kicks in and the smoothed price climbs.
	var hot Quote
	for i := 0; i < 40; i++ {
		q, err := ctrl.Reprice(Sample{Utilization: 0.95, Demand: 192})
		if err != nil {
			t.Fatal(err)
		}
		hot = q
	}
	if !hot.Congested {
		t.Fatal("saturated quote not congested")
	}
	if hot.Multiplier <= 1 {
		t.Fatalf("saturated multiplier = %g, want > 1", hot.Multiplier)
	}
	if hot.Price <= calm.Price {
		t.Fatalf("price did not rise under congestion: calm %g, hot %g", calm.Price, hot.Price)
	}
	// And relaxes back once the pressure clears.
	var cooled Quote
	for i := 0; i < 60; i++ {
		q, err := ctrl.Reprice(Sample{Utilization: 0.2, Demand: 64})
		if err != nil {
			t.Fatal(err)
		}
		cooled = q
	}
	if cooled.Price >= hot.Price {
		t.Fatalf("price did not relax after congestion: hot %g, cooled %g", hot.Price, cooled.Price)
	}
	if math.Abs(cooled.Price-calm.Price) > 0.05*calm.Price {
		t.Fatalf("price did not re-converge: calm %g, cooled %g", calm.Price, cooled.Price)
	}
}

func TestRepriceDeterministic(t *testing.T) {
	run := func() []float64 {
		ctrl := newTestController(t)
		var prices []float64
		for i := 0; i < 30; i++ {
			u := 0.3 + 0.6*float64(i%7)/7
			q, err := ctrl.Reprice(Sample{Utilization: u, Demand: float64(32 + 8*i)})
			if err != nil {
				t.Fatal(err)
			}
			prices = append(prices, q.Price)
		}
		return prices
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: price %v != %v (pricing must be a pure function of the sample sequence)", i, a[i], b[i])
		}
	}
}

func TestAdmissionUncongestedAdmitsZeroBid(t *testing.T) {
	ctrl := newTestController(t)
	adm := NewAdmission(ctrl)
	if _, err := ctrl.Reprice(Sample{Utilization: 0.1, Demand: 64}); err != nil {
		t.Fatal(err)
	}
	ok, quote := adm.Admit(0)
	if !ok {
		t.Fatal("zero bid refused while uncongested (backward-compat regime broken)")
	}
	if quote != ctrl.Price() {
		t.Fatalf("quote %g != price %g", quote, ctrl.Price())
	}
	st := adm.Stats()
	if st.Admitted != 1 || st.AdmittedFree != 1 || st.Revenue != 0 {
		t.Fatalf("free admission counted wrong: %+v", st)
	}
	// A NaN bid is a zero bid: it rides free and pays nothing (it used to pay
	// NaN into the revenue, which no JSON encoder will then write).
	if ok, _ := adm.Admit(math.NaN()); !ok {
		t.Fatal("NaN bid refused while uncongested")
	}
	if st := adm.Stats(); st.AdmittedFree != 2 || st.Revenue != 0 {
		t.Fatalf("NaN bid not counted as a free ride: %+v", st)
	}
}

func TestAdmissionCongestedPricesBids(t *testing.T) {
	ctrl := newTestController(t)
	adm := NewAdmission(ctrl)
	for i := 0; i < 20; i++ {
		if _, err := ctrl.Reprice(Sample{Utilization: 0.95, Demand: 256}); err != nil {
			t.Fatal(err)
		}
	}
	price := ctrl.Price()
	if !ctrl.Congested() {
		t.Fatal("not congested at utilization 0.95")
	}
	if ok, quote := adm.Admit(price / 2); ok {
		t.Fatal("half-price bid admitted under congestion")
	} else if quote != price {
		t.Fatalf("refusal quote %g != price %g", quote, price)
	}
	if ok, _ := adm.Admit(0); ok {
		t.Fatal("zero bid admitted under congestion")
	}
	if ok, _ := adm.Admit(math.NaN()); ok {
		t.Fatal("NaN bid admitted under congestion, over every finite bid")
	}
	if ok, _ := adm.Admit(price * 1.01); !ok {
		t.Fatal("above-quote bid refused")
	}
	st := adm.Stats()
	if st.PriceRejected != 3 || st.Admitted != 1 {
		t.Fatalf("counters: %+v, want 3 rejected / 1 admitted", st)
	}
	if math.Abs(st.Revenue-price) > 1e-12 {
		t.Fatalf("revenue %g, want the posted price %g (winner pays quote, not bid)", st.Revenue, price)
	}
}

func TestAdmissionUncongestedPaysMinBidPrice(t *testing.T) {
	ctrl := newTestController(t)
	adm := NewAdmission(ctrl)
	if _, err := ctrl.Reprice(Sample{Utilization: 0.1, Demand: 64}); err != nil {
		t.Fatal(err)
	}
	price := ctrl.Price()
	adm.Admit(price / 2) // underbid: pays its bid
	adm.Admit(price * 3) // overbid: pays the posted price
	want := price/2 + price
	if got := adm.Stats().Revenue; math.Abs(got-want) > 1e-12 {
		t.Fatalf("revenue %g, want %g", got, want)
	}
}

func TestDrainRevenueResets(t *testing.T) {
	ctrl := newTestController(t)
	adm := NewAdmission(ctrl)
	if _, err := ctrl.Reprice(Sample{Utilization: 0.1, Demand: 64}); err != nil {
		t.Fatal(err)
	}
	adm.Admit(ctrl.Price())
	if got := adm.DrainRevenue(); got <= 0 {
		t.Fatalf("drained %g, want > 0", got)
	}
	if got := adm.Stats().Revenue; got != 0 {
		t.Fatalf("revenue after drain = %g, want 0", got)
	}
}
