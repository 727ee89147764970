package econ

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"brokerset/internal/graph"
)

func TestNashBargainClosedForm(t *testing.T) {
	p := BargainParams{PriceB: 10, Cost: 1, Beta: 4}
	res, err := NashBargain(p)
	if err != nil {
		t.Fatal(err)
	}
	// m = 2, p_j* = p_B/m = 5.
	if !almostEqual(res.PriceJ, 5, 1e-9) {
		t.Fatalf("PriceJ = %f, want 5", res.PriceJ)
	}
	if !almostEqual(res.UtilityJ, 4, 1e-9) {
		t.Errorf("UtilityJ = %f, want 4", res.UtilityJ)
	}
	// u_B = 2*10 - 2*5 - 2*1 = 8.
	if !almostEqual(res.UtilityB, 8, 1e-9) {
		t.Errorf("UtilityB = %f, want 8", res.UtilityB)
	}
	if !almostEqual(res.Product, 32, 1e-9) {
		t.Errorf("Product = %f, want 32", res.Product)
	}
}

// The closed form must beat every other feasible price (it's the argmax of
// the Nash product).
func TestNashBargainMaximizesProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := BargainParams{
			PriceB: 5 + 10*rng.Float64(),
			Cost:   0.1 + 0.5*rng.Float64(),
			Beta:   1 + rng.Intn(6),
		}
		res, err := NashBargain(p)
		if err != nil {
			return true // infeasible draw
		}
		for i := 0; i < 50; i++ {
			pj := p.Cost + rng.Float64()*(2*p.PriceB)
			if nashProduct(p, pj) > res.Product+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNashBargainRejectsBadInput(t *testing.T) {
	if _, err := NashBargain(BargainParams{PriceB: 10, Cost: 1, Beta: 0}); err == nil {
		t.Error("beta=0 accepted")
	}
	if _, err := NashBargain(BargainParams{PriceB: 0, Cost: 1, Beta: 4}); err == nil {
		t.Error("priceB=0 accepted")
	}
	if _, err := NashBargain(BargainParams{PriceB: 10, Cost: -1, Beta: 4}); err == nil {
		t.Error("negative cost accepted")
	}
	// No surplus: p_B <= m*c.
	if _, err := NashBargain(BargainParams{PriceB: 2, Cost: 1, Beta: 4}); err == nil {
		t.Error("no-surplus bargain accepted")
	}
}

func TestCustomerBestResponseConcave(t *testing.T) {
	c := Customer{Name: "x", BaseRate: 0.1, Value: 1, Curvature: 3, TransitGain: 0.4}
	a := c.BestResponse(0.2)
	if a < c.BaseRate || a > 1 {
		t.Fatalf("best response %f outside [%f, 1]", a, c.BaseRate)
	}
	// No other adoption can beat it.
	best := c.Utility(a, 0.2)
	for x := c.BaseRate; x <= 1.0001; x += 0.01 {
		xx := math.Min(x, 1)
		if c.Utility(xx, 0.2) > best+1e-6 {
			t.Fatalf("utility at %f beats best response %f", xx, a)
		}
	}
}

func TestCustomerAdoptionDecreasesWithPrice(t *testing.T) {
	c := Customer{Name: "x", BaseRate: 0.1, Value: 1, Curvature: 3, TransitGain: 0.4}
	prev := 2.0
	for _, p := range []float64{0, 0.3, 0.8, 1.5, 3} {
		a := c.BestResponse(p)
		if a > prev+1e-9 {
			t.Fatalf("adoption increased with price: a(%f) = %f > %f", p, a, prev)
		}
		prev = a
	}
	// Free service with positive value: full adoption.
	if a := c.BestResponse(0); a < 0.99 {
		t.Errorf("free-price adoption = %f, want ~1", a)
	}
	// Prohibitive price: fall back to the base rate.
	if a := c.BestResponse(100); a > c.BaseRate+1e-6 {
		t.Errorf("prohibitive-price adoption = %f, want base %f", a, c.BaseRate)
	}
}

func TestCustomerValidate(t *testing.T) {
	bad := []Customer{
		{BaseRate: -0.1, Value: 1, Curvature: 1, TransitGain: 1},
		{BaseRate: 1.0, Value: 1, Curvature: 1, TransitGain: 1},
		{BaseRate: 0.1, Value: -1, Curvature: 1, TransitGain: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid customer accepted", i)
		}
	}
	good := Customer{BaseRate: 0.1, Value: 1, Curvature: 1, TransitGain: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid customer rejected: %v", err)
	}
}

func TestStackelbergEquilibriumExists(t *testing.T) {
	b := Broker{UnitCost: 0.05, HireFraction: 0.1, Beta: 4, MaxPrice: 3}
	customers := NewCustomerPopulation(20, false, 1)
	eq, err := StackelbergEquilibrium(b, customers)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Price < 0 || eq.Price > b.MaxPrice {
		t.Fatalf("price %f outside [0, %f]", eq.Price, b.MaxPrice)
	}
	if eq.BrokerUtility <= 0 {
		t.Fatalf("broker utility %f, want > 0 (profitable equilibrium)", eq.BrokerUtility)
	}
	if len(eq.Adoption) != 20 || len(eq.CustomerUtility) != 20 {
		t.Fatalf("adoption/utility lengths %d/%d", len(eq.Adoption), len(eq.CustomerUtility))
	}
	var sum float64
	for i, a := range eq.Adoption {
		if a < customers[i].BaseRate-1e-9 || a > 1+1e-9 {
			t.Fatalf("adoption[%d] = %f outside range", i, a)
		}
		sum += a
	}
	if !almostEqual(sum, eq.TotalTraffic, 1e-9) {
		t.Fatalf("TotalTraffic %f != sum %f", eq.TotalTraffic, sum)
	}
	// The reported price should be (near) optimal vs a fine grid.
	for p := 0.0; p <= b.MaxPrice; p += b.MaxPrice / 200 {
		if b.Utility(p, customers) > eq.BrokerUtility+1e-3 {
			t.Fatalf("price %f yields %f > equilibrium %f", p, b.Utility(p, customers), eq.BrokerUtility)
		}
	}
}

func TestStackelbergRejectsBadInput(t *testing.T) {
	good := Broker{UnitCost: 0.05, HireFraction: 0.1, Beta: 4, MaxPrice: 3}
	if _, err := StackelbergEquilibrium(good, nil); err == nil {
		t.Error("no customers accepted")
	}
	bad := good
	bad.MaxPrice = 0
	if _, err := StackelbergEquilibrium(bad, NewCustomerPopulation(3, false, 1)); err == nil {
		t.Error("MaxPrice=0 accepted")
	}
	bad = good
	bad.Beta = 0
	if _, err := StackelbergEquilibrium(bad, NewCustomerPopulation(3, false, 1)); err == nil {
		t.Error("Beta=0 accepted")
	}
	bad = good
	bad.HireFraction = 2
	if _, err := StackelbergEquilibrium(bad, NewCustomerPopulation(3, false, 1)); err == nil {
		t.Error("HireFraction=2 accepted")
	}
	if _, err := StackelbergEquilibrium(good, []Customer{{BaseRate: -1}}); err == nil {
		t.Error("invalid customer accepted")
	}
}

// §7.1: with high-tier ISPs inside B, lower-tier customers adopt more.
func TestHighTierInclusionRaisesAdoption(t *testing.T) {
	b := Broker{UnitCost: 0.05, HireFraction: 0.1, Beta: 4, MaxPrice: 3}
	without, err := StackelbergEquilibrium(b, NewCustomerPopulation(25, false, 7))
	if err != nil {
		t.Fatal(err)
	}
	with, err := StackelbergEquilibrium(b, NewCustomerPopulation(25, true, 7))
	if err != nil {
		t.Fatal(err)
	}
	if with.TotalTraffic <= without.TotalTraffic {
		t.Fatalf("high-tier inclusion did not raise adoption: %f vs %f",
			with.TotalTraffic, without.TotalTraffic)
	}
	if with.BrokerUtility <= without.BrokerUtility {
		t.Fatalf("high-tier inclusion did not raise broker profit: %f vs %f",
			with.BrokerUtility, without.BrokerUtility)
	}
}

// --- Shapley ---

// additiveGame has v(S) = Σ weights; Shapley must return the weights.
func additiveGame(weights []float64) CoalitionValue {
	return func(mask uint64) float64 {
		var sum float64
		for i, w := range weights {
			if mask&(1<<uint(i)) != 0 {
				sum += w
			}
		}
		return sum
	}
}

func TestShapleyExactAdditive(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	phi, err := ShapleyExact(4, additiveGame(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if !almostEqual(phi[i], w[i], 1e-9) {
			t.Fatalf("phi = %v, want %v", phi, w)
		}
	}
}

func TestShapleyExactGloveGame(t *testing.T) {
	// Classic: players 0,1 own left gloves, player 2 the right glove;
	// v(S) = 1 if S has both kinds. Known Shapley: (1/6, 1/6, 2/3).
	v := func(mask uint64) float64 {
		left := mask&0b011 != 0
		right := mask&0b100 != 0
		if left && right {
			return 1
		}
		return 0
	}
	phi, err := ShapleyExact(3, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3}
	for i := range want {
		if !almostEqual(phi[i], want[i], 1e-9) {
			t.Fatalf("phi = %v, want %v", phi, want)
		}
	}
}

func TestShapleyEfficiencyAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		// Random monotone game: v(S) = max over members of a weight, plus
		// size bonus; symmetric in players 0 and 1.
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		w[1] = w[0]
		v := func(mask uint64) float64 {
			var best float64
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 && w[i] > best {
					best = w[i]
				}
			}
			return best + 0.1*float64(bits.OnesCount64(mask))
		}
		phi, err := ShapleyExact(n, v)
		if err != nil {
			return false
		}
		if Efficiency(phi, v) > 1e-9 {
			return false
		}
		return almostEqual(phi[0], phi[1], 1e-9) // symmetry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestShapleyMonteCarloConverges(t *testing.T) {
	w := []float64{1, 2, 3, 4, 5}
	v := additiveGame(w)
	phi, err := ShapleyMonteCarlo(5, v, 2000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ShapleyExact(5, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(phi[i]-exact[i]) > 0.15 {
			t.Fatalf("MC phi[%d] = %f, exact %f", i, phi[i], exact[i])
		}
	}
}

func TestShapleyInputValidation(t *testing.T) {
	v := additiveGame([]float64{1})
	if _, err := ShapleyExact(0, v); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ShapleyExact(21, v); err == nil {
		t.Error("n=21 accepted for exact")
	}
	if _, err := ShapleyMonteCarlo(0, v, 10, nil); err == nil {
		t.Error("MC n=0 accepted")
	}
	if _, err := ShapleyMonteCarlo(3, v, 0, nil); err == nil {
		t.Error("MC samples=0 accepted")
	}
}

func TestSuperadditiveAndSupermodular(t *testing.T) {
	// Convex (supermodular) game: v(S) = |S|^2.
	sq := func(mask uint64) float64 {
		c := float64(bits.OnesCount64(mask))
		return c * c
	}
	if !IsSuperadditive(4, sq) {
		t.Error("|S|^2 not superadditive")
	}
	if !IsSupermodular(4, sq) {
		t.Error("|S|^2 not supermodular")
	}
	// Concave game: v(S) = sqrt(|S|): superadditive fails (1+1 > sqrt 2);
	// supermodular fails too.
	sqrt := func(mask uint64) float64 {
		return math.Sqrt(float64(bits.OnesCount64(mask)))
	}
	if IsSuperadditive(4, sqrt) {
		t.Error("sqrt(|S|) claimed superadditive")
	}
	if IsSupermodular(4, sqrt) {
		t.Error("sqrt(|S|) claimed supermodular")
	}
}

// Theorem 7: superadditivity implies individual rationality of Shapley.
func TestTheorem7IndividualRationality(t *testing.T) {
	sq := func(mask uint64) float64 {
		c := float64(bits.OnesCount64(mask))
		return c * c
	}
	phi, err := ShapleyExact(5, sq)
	if err != nil {
		t.Fatal(err)
	}
	if !IndividuallyRational(phi, sq) {
		t.Fatal("superadditive game not individually rational")
	}
}

func TestMemoize(t *testing.T) {
	calls := 0
	v := func(mask uint64) float64 {
		calls++
		return float64(mask)
	}
	m := Memoize(v)
	m(3)
	m(3)
	m(5)
	if calls != 2 {
		t.Fatalf("memoized func called %d times, want 2", calls)
	}
}

func TestCoverageGame(t *testing.T) {
	// Star graph: center is player 0, two leaves players 1, 2.
	b := graph.NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, i)
	}
	g := b.MustBuild()
	v, err := CoverageGame(g, []int32{0, 1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := v(0); got != 0 {
		t.Errorf("empty coalition value %f", got)
	}
	center := v(0b001)
	leaf := v(0b010)
	if center <= leaf {
		t.Errorf("center coalition %f should beat leaf %f", center, leaf)
	}
	// Grand coalition at least matches the center alone.
	if v(0b111) < center {
		t.Errorf("grand coalition %f < center %f", v(0b111), center)
	}

	if _, err := CoverageGame(g, nil, 1); err == nil {
		t.Error("no players accepted")
	}
	if _, err := CoverageGame(g, []int32{99}, 1); err == nil {
		t.Error("out-of-range player accepted")
	}
	if _, err := CoverageGame(g, []int32{0}, 0); err == nil {
		t.Error("zero revenue scale accepted")
	}
}

// §7.2 narrative: the coverage coalition game is supermodular for small
// broker sets (network externality) but the condition breaks as the set
// grows and marginal contributions shrink.
func TestSupermodularityBreaksAsCoalitionGrows(t *testing.T) {
	// A path graph makes the effect easy to see: early brokers complement
	// each other (joining dominated islands), later ones only overlap.
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.MustBuild()
	small, err := CoverageGame(g, []int32{3, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSupermodular(2, small) {
		t.Error("two complementary brokers not supermodular")
	}
	big, err := CoverageGame(g, []int32{1, 3, 5, 7, 2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsSupermodular(6, big) {
		t.Error("large overlapping coalition still supermodular — marginal effect missing")
	}
}

// nashProduct evaluates the bargaining objective at an arbitrary p_j; used
// by tests to confirm the closed form maximizes it.
func nashProduct(p BargainParams, pj float64) float64 {
	m := hires(p.Beta)
	uj := pj - p.Cost
	ub := 2*p.PriceB - m*pj - m*p.Cost
	return uj * ub
}

// almostEqual compares with an absolute tolerance.
func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
