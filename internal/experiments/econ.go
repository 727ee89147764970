package experiments

import (
	"fmt"

	"brokerset/internal/econ"
	"brokerset/internal/stats"
	"brokerset/internal/tablefmt"
)

// econBroker is the shared broker parameterization for §7 experiments. The
// hire fraction comes from Fig 5a's finding that ~10% of connections need
// non-broker transit.
func econBroker() econ.Broker {
	return econ.Broker{UnitCost: 0.05, HireFraction: 0.1, Beta: 4, MaxPrice: 3}
}

// Fig6 reproduces the paper's business-model illustration: the payment
// flows between a customer AS, the coalition B, and a hired employee AS,
// instantiated with the Nash bargaining solution of §7.1.
func (s *Suite) Fig6() (*tablefmt.Table, error) {
	t := tablefmt.New("Fig 6. Payment flows in the brokerage business model",
		"flow", "per-unit amount", "derivation")
	const (
		priceB = 1.0
		cost   = 0.05
		beta   = 4
	)
	res, err := econ.NashBargain(econ.BargainParams{PriceB: priceB, Cost: cost, Beta: beta})
	if err != nil {
		return nil, err
	}
	t.AddRow("customer AS -> B (routing fee p_B)", priceB, "Stackelberg leader price")
	t.AddRow("destination side -> B (routing fee p_B)", priceB, "B charges both ends")
	t.AddRow("B -> employee AS (p_j)", res.PriceJ, "Nash bargaining: p_j* = p_B / ceil(beta/2)")
	t.AddRow("employee AS routing cost (c)", cost, "per-unit transit cost")
	t.AddRow("employee utility u_j", res.UtilityJ, "p_j - c")
	t.AddRow("coalition utility u_B (worst case)", res.UtilityB, "2 p_B - m p_j - m c, m = ceil(beta/2)")
	t.AddNote("Theorem 5: the bargaining problem always has a Nash solution when p_B > m c")
	return t, nil
}

// Econ reproduces the §7.1 Stackelberg analysis: equilibrium price and
// adoption for a lower-tier customer population, with and without
// high-tier ISPs inside the broker set.
func (s *Suite) Econ() (*tablefmt.Table, error) {
	b := econBroker()
	const customers = 30
	without, err := econ.StackelbergEquilibrium(b, econ.NewCustomerPopulation(customers, false, s.Config.Seed))
	if err != nil {
		return nil, err
	}
	with, err := econ.StackelbergEquilibrium(b, econ.NewCustomerPopulation(customers, true, s.Config.Seed))
	if err != nil {
		return nil, err
	}
	t := tablefmt.New("Stackelberg equilibrium: effect of high-tier ISPs joining B",
		"scenario", "price p_B", "mean adoption a_i", "full adopters", "broker utility")
	row := func(name string, eq *econ.Equilibrium) {
		full := 0
		for _, a := range eq.Adoption {
			if a > 0.999 {
				full++
			}
		}
		t.AddRow(name, eq.Price, stats.Mean(eq.Adoption),
			fmt.Sprintf("%d/%d", full, len(eq.Adoption)), eq.BrokerUtility)
	}
	row("high-tier ISPs outside B", without)
	row("high-tier ISPs inside B", with)
	t.AddNote("Theorem 6 guarantees the equilibrium exists; adoption a_i=1 means the brokerage scheme is fully adopted")
	t.AddNote("paper: including high-tier ISPs makes lower-tier ISPs more willing to follow the new rule")
	return t, nil
}

// Shapley reproduces the §7.2 coalition analysis: the Shapley revenue split
// over a panel of top alliance brokers (value = connectivity-proportional
// revenue), individual rationality, efficiency, whether the panel's game
// meets Theorem 7's superadditivity and Theorem 8's supermodularity
// conditions, and the shrinking value of a next broker as the coalition
// grows.
func (s *Suite) Shapley() (*tablefmt.Table, error) {
	alliance, err := s.Alliance()
	if err != nil {
		return nil, err
	}
	const players = 10
	panel := prefix(alliance, players)
	const revenueScale = 1000
	v, err := econ.CoverageGame(s.Top.Graph, panel, revenueScale)
	if err != nil {
		return nil, err
	}
	phi, err := econ.ShapleyExact(len(panel), v)
	if err != nil {
		return nil, err
	}
	mc, err := econ.ShapleyMonteCarlo(len(panel), v, 200, s.rng(80))
	if err != nil {
		return nil, err
	}
	t := tablefmt.New("Shapley revenue split over the top alliance brokers",
		"broker", "class", "stand-alone value", "Shapley value", "Monte-Carlo estimate")
	for i, b := range panel {
		t.AddRow(s.Top.Name[b], s.Top.Class[b].String(),
			v(1<<uint(i)), phi[i], mc[i])
	}
	t.AddNote("efficiency gap |sum(phi) - v(grand)| = %.6f", econ.Efficiency(phi, v))
	t.AddNote("individually rational (Theorem 7): %v", econ.IndividuallyRational(phi, v))
	t.AddNote("superadditive (Theorem 7's condition): %v", econ.IsSuperadditive(len(panel), v))
	t.AddNote("supermodular (Theorem 8's condition): %v", econ.IsSupermodular(len(panel), v))

	// §7.2's sizing argument: the value of growing the coalition along the
	// alliance order, and the marginal contribution of the next broker.
	// Early joiners are super-ASes with network-externality-amplified
	// contributions; once the set passes a threshold, new joiners add only
	// marginal value — "that's the time to stop increasing the set size."
	for _, k := range []int{1, len(alliance) / 16, len(alliance) / 8, len(alliance) / 4, len(alliance) / 2, len(alliance) - 1} {
		if k < 1 || k+1 > len(alliance) {
			continue
		}
		vk := revenueScale * s.connectivity(prefix(alliance, k))
		vk1 := revenueScale * s.connectivity(prefix(alliance, k+1))
		t.AddNote("coalition size %d: value %.2f, next broker adds %.4f", k, vk, vk1-vk)
	}
	return t, nil
}
