package experiments

import (
	"fmt"
	"slices"

	"brokerset/internal/market"
	"brokerset/internal/tablefmt"
)

// marketScenarios are ext-market's rows, each run at seeds 1-3.
var marketScenarios = []string{market.ScenarioPriceShock, market.ScenarioFreeRider, market.ScenarioDefection}

// ExtMarket runs the §7 economics as a market over time: each named
// scenario drives the Stackelberg pricing loop, priced admission and the
// Shapley settlement through its seeded demand trace (market.Simulate), and
// a row reports what the run admitted, collected and settled. The scenarios
// are synthetic and independent of the suite's topology.
func (s *Suite) ExtMarket() (*tablefmt.Table, error) {
	t := tablefmt.New("Ext: market scenarios — pricing, priced admission and Shapley settlement over time",
		"scenario", "seed", "admitted", "free riders", "price-rejected", "revenue settled", "windows",
		"first price", "peak price", "final price", "defected broker")
	for _, name := range marketScenarios {
		spec, err := market.DefaultScenario(name)
		if err != nil {
			return nil, err
		}
		for seed := int64(1); seed <= 3; seed++ {
			res, err := market.Simulate(spec, seed)
			if err != nil {
				return nil, err
			}
			if err := res.Settlement.CheckConservation(1e-9); err != nil {
				return nil, fmt.Errorf("experiments: ext-market %s seed %d: %w", name, seed, err)
			}
			var revenue float64
			for _, rec := range res.Ledger {
				revenue += rec.Revenue
			}
			var defected any = "-"
			if res.Defected >= 0 {
				defected = res.Defected
			}
			st := res.Admission
			t.AddRow(name, seed, st.Admitted, st.AdmittedFree, st.PriceRejected, revenue, len(res.Ledger),
				res.Prices[0], slices.Max(res.Prices), res.Prices[len(res.Prices)-1], defected)
		}
	}
	t.AddNote("price-shock: demand triples over the middle third; the price rises under congestion and relaxes after it")
	t.AddNote("free-rider: 60%% of requests bid zero; they ride free while uncongested and are refused under congestion")
	t.AddNote("broker-defection: the top-Shapley broker leaves at the midpoint; later windows settle over the survivors")
	t.AddNote("prices are the controller's after each tick's reprice: a function of the scenario's demand trace alone, so every seed reads the same")
	t.AddNote("every settlement window splits its revenue exactly (Σ Shapley shares = revenue)")
	return t, nil
}
