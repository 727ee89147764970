package market

import (
	"math"
	"testing"
)

// TestScenarioDeterminism is the acceptance gate for the market's
// replayability: the fixed-seed price-shock scenario must produce the same
// price trajectory and a bitwise-identical settlement ledger across two
// runs (CI runs this under -race), and every settlement must conserve
// revenue to 1e-9.
func TestScenarioDeterminism(t *testing.T) {
	spec, err := DefaultScenario(ScenarioPriceShock)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Prices) != len(b.Prices) {
		t.Fatalf("price trajectory lengths differ: %d vs %d", len(a.Prices), len(b.Prices))
	}
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatalf("tick %d: price %v != %v", i, a.Prices[i], b.Prices[i])
		}
	}
	if len(a.Ledger) != len(b.Ledger) {
		t.Fatalf("ledger lengths differ: %d vs %d", len(a.Ledger), len(b.Ledger))
	}
	for w := range a.Ledger {
		ra, rb := a.Ledger[w], b.Ledger[w]
		if ra.Revenue != rb.Revenue || ra.Method != rb.Method || len(ra.Splits) != len(rb.Splits) {
			t.Fatalf("window %d: records differ: %+v vs %+v", w, ra, rb)
		}
		for i := range ra.Splits {
			if ra.Brokers[i] != rb.Brokers[i] || ra.Splits[i] != rb.Splits[i] {
				t.Fatalf("window %d split %d: (%d, %v) != (%d, %v)",
					w, i, ra.Brokers[i], ra.Splits[i], rb.Brokers[i], rb.Splits[i])
			}
		}
	}
	if err := a.Settlement.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioSeedsDiverge guards against the scenario engine accidentally
// ignoring its seed (which would make "replayable" vacuous).
func TestScenarioSeedsDiverge(t *testing.T) {
	spec, err := DefaultScenario(ScenarioPriceShock)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Ledger) == len(b.Ledger)
	if same {
		for w := range a.Ledger {
			if len(a.Ledger[w].Splits) != len(b.Ledger[w].Splits) {
				same = false
				break
			}
			for i := range a.Ledger[w].Splits {
				if a.Ledger[w].Splits[i] != b.Ledger[w].Splits[i] {
					same = false
					break
				}
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical ledgers")
	}
}

func TestPriceShockTrajectory(t *testing.T) {
	spec, err := DefaultScenario(ScenarioPriceShock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += res.Prices[i]
		}
		return s / float64(hi-lo)
	}
	pre := mean(spec.ShockStart-10, spec.ShockStart)
	during := mean(spec.ShockEnd-10, spec.ShockEnd)
	post := mean(spec.Ticks-10, spec.Ticks)
	if during <= pre*1.2 {
		t.Fatalf("demand spike did not raise the price: pre %g, during %g", pre, during)
	}
	if post >= during*0.8 {
		t.Fatalf("price did not relax after the shock: during %g, post %g", during, post)
	}
	if math.Abs(post-pre) > 0.25*pre {
		t.Fatalf("price did not re-converge near pre-shock level: pre %g, post %g", pre, post)
	}
	if res.Admission.PriceRejected == 0 {
		t.Fatal("shock never tightened admission (no price rejections)")
	}
}

func TestFreeRiderScenario(t *testing.T) {
	spec, err := DefaultScenario(ScenarioFreeRider)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Admission
	if st.AdmittedFree == 0 {
		t.Fatal("no free riders carried while uncongested")
	}
	if st.AdmittedFree >= st.Admitted {
		t.Fatalf("free %d >= admitted %d", st.AdmittedFree, st.Admitted)
	}
	if st.PriceRejected == 0 {
		t.Fatal("congested phase never refused a zero-bid request")
	}
	// All revenue comes from paying traffic and lands in the ledger.
	var settled float64
	for _, rec := range res.Ledger {
		settled += rec.Revenue
	}
	if st.Revenue != 0 {
		t.Fatalf("undrained revenue %g after final settlement", st.Revenue)
	}
	if settled <= 0 {
		t.Fatal("no revenue settled despite paying traffic")
	}
	if err := res.Settlement.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestBrokerDefectionScenario(t *testing.T) {
	spec, err := DefaultScenario(ScenarioDefection)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Defected < 0 {
		t.Fatal("no broker defected")
	}
	// Windows that closed strictly after the defection tick must not
	// credit the departed broker (its last pre-defection window may).
	defectWindow := spec.DefectTick / spec.WindowTicks
	for _, rec := range res.Ledger {
		if rec.Window > defectWindow {
			if got := rec.Share(res.Defected); got != 0 {
				t.Fatalf("window %d credits defected broker %d with %g", rec.Window, res.Defected, got)
			}
		}
	}
	// Settlement still conserves and pricing still produced a full
	// trajectory (the plane re-converged rather than wedging).
	if err := res.Settlement.CheckConservation(1e-9); err != nil {
		t.Fatal(err)
	}
	if len(res.Prices) != spec.Ticks {
		t.Fatalf("price trajectory truncated: %d ticks of %d", len(res.Prices), spec.Ticks)
	}
	last := res.Ledger[len(res.Ledger)-1]
	if len(last.Brokers) == 0 {
		t.Fatal("post-defection settlement credited nobody")
	}
}
