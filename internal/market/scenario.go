package market

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// ScenarioSpec is a seeded, replayable economics scenario: a synthetic
// demand trace driven tick-by-tick through a real Plane. Simulate is
// single-threaded and uses one seeded RNG, so the same spec and seed always
// produce the same price trajectory and a bitwise-identical ledger
// (TestScenarioDeterminism, TestSimulateGolden).
type ScenarioSpec struct {
	// Name labels the scenario ("price-shock", "free-rider",
	// "broker-defection", or custom).
	Name string
	// Ticks is the number of controller iterations (default 120).
	Ticks int
	// WindowTicks is the settlement window length in ticks (default 20).
	WindowTicks int
	// Brokers is the carrier population size (default 12 — large enough
	// that windows exercise the exact/Monte-Carlo boundary both ways).
	Brokers int
	// BaseDemand is the per-tick offered load in requests (default 64).
	BaseDemand float64
	// ShockStart/ShockEnd bound the demand-spike window in ticks, and
	// ShockFactor multiplies demand inside it (default 3x over the middle
	// third for price-shock; factor 1 disables the shock).
	ShockStart, ShockEnd int
	ShockFactor          float64
	// ZeroBidFraction is the probability a request bids zero (free
	// riders). Zero-bid traffic still carries while uncongested.
	ZeroBidFraction float64
	// BidSpread is the relative width of the bid distribution around the
	// quote: a paying request bids quote × (1 − BidSpread/2 +
	// BidSpread·U[0,1)), so roughly half of the paying population
	// underbids during congestion (default 0.5).
	BidSpread float64
	// DefectTick, when > 0, removes the top-Shapley broker of the latest
	// settlement from the carrier population at that tick (the
	// broker-defection scenario).
	DefectTick int
	// Capacity is the per-tick demand that saturates utilization 1.0
	// (default 2 × BaseDemand, so the shock pushes well past the
	// congestion threshold).
	Capacity float64
}

func (s *ScenarioSpec) defaults() {
	if s.Ticks <= 0 {
		s.Ticks = 120
	}
	if s.WindowTicks <= 0 {
		s.WindowTicks = 20
	}
	if s.Brokers <= 0 {
		s.Brokers = 12
	}
	if s.BaseDemand <= 0 {
		s.BaseDemand = 64
	}
	if s.ShockFactor <= 0 {
		s.ShockFactor = 1
	}
	if s.BidSpread <= 0 {
		s.BidSpread = 0.5
	}
	if s.Capacity <= 0 {
		s.Capacity = 2 * s.BaseDemand
	}
}

// Scenario names understood by DefaultScenario, the rows of experiments
// ext-market.
const (
	ScenarioPriceShock = "price-shock"
	ScenarioFreeRider  = "free-rider"
	ScenarioDefection  = "broker-defection"
)

// DefaultScenario returns the spec for one of the named scenario family
// members:
//
//   - price-shock: demand triples over the middle third of the run; the
//     price must rise during the shock and relax after it.
//   - free-rider: 60% of requests bid zero; they are carried while the
//     plane is uncongested and contribute no revenue.
//   - broker-defection: the top-Shapley broker leaves mid-run; settlement
//     and pricing re-converge over the survivors.
func DefaultScenario(name string) (ScenarioSpec, error) {
	spec := ScenarioSpec{Name: name}
	spec.defaults()
	switch name {
	case ScenarioPriceShock:
		spec.ShockStart = spec.Ticks / 3
		spec.ShockEnd = 2 * spec.Ticks / 3
		spec.ShockFactor = 3
	case ScenarioFreeRider:
		spec.ZeroBidFraction = 0.6
		// Mild shock so the congested regime (free riders refused) is
		// exercised too.
		spec.ShockStart = spec.Ticks / 2
		spec.ShockEnd = 3 * spec.Ticks / 4
		spec.ShockFactor = 2.5
	case ScenarioDefection:
		spec.DefectTick = spec.Ticks / 2
		spec.ShockStart = spec.Ticks / 3
		spec.ShockEnd = 2 * spec.Ticks / 3
		spec.ShockFactor = 2
	default:
		return spec, fmt.Errorf("market: unknown scenario %q (want %s, %s, or %s)",
			name, ScenarioPriceShock, ScenarioFreeRider, ScenarioDefection)
	}
	return spec, nil
}

// SampleAt is the scenario's sample step: what the serving stack shows the
// controller at tick t. Demand is the offered load (the shock multiplier
// applied inside its window), utilization that demand over Capacity, capped
// at 1.
func (s *ScenarioSpec) SampleAt(t int) Sample {
	demand := s.BaseDemand
	if s.ShockFactor > 1 && t >= s.ShockStart && t < s.ShockEnd {
		demand *= s.ShockFactor
	}
	return Sample{Utilization: math.Min(demand/s.Capacity, 1), Demand: demand}
}

// DefectorAt is the scenario's defection step: at DefectTick the top-Shapley
// broker of the latest settlement leaves the carrier population. It returns
// that broker, or -1 at any other tick or with nothing settled yet.
func (s *ScenarioSpec) DefectorAt(t int, set *Settlement) int32 {
	if s.DefectTick <= 0 || t != s.DefectTick {
		return -1
	}
	var last Record
	if ledger := set.Records(); len(ledger) > 0 {
		last = ledger[len(ledger)-1]
	}
	return last.TopBroker()
}

// Bid draws one request's bid against the posted price: zero with
// probability ZeroBidFraction, else spread around the price.
func (s *ScenarioSpec) Bid(price float64, rng *rand.Rand) float64 {
	if rng.Float64() < s.ZeroBidFraction {
		return 0
	}
	return price * (1 - s.BidSpread/2 + s.BidSpread*rng.Float64())
}

// SimResult is the deterministic outcome of Simulate.
type SimResult struct {
	// Prices is the published price after each tick's reprice.
	Prices []float64
	// Quotes is the full quote after each tick.
	Quotes []Quote
	// Ledger is the settled window sequence.
	Ledger []Record
	// Admission is the gate's final counters.
	Admission AdmissionStats
	// Defected is the broker removed at DefectTick (-1 if none).
	Defected int32
	// Settlement is the live engine, for conservation checks.
	Settlement *Settlement
}

// Simulate drives the spec through a real Plane, synchronously and
// deterministically: tick t offers SampleAt(t).Demand requests with seeded
// bids, each admitted request is carried by a seeded 1–3-broker subset of the
// active population, and the plane ticks on the sample — repricing, and
// settling every WindowTicks. The broker ids are 100, 101, ... so ledgers
// read clearly in tests.
func Simulate(spec ScenarioSpec, seed int64) (*SimResult, error) {
	spec.defaults()
	p, err := NewPlane(spec.BaseDemand, seed, spec.WindowTicks)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	active := make([]int32, spec.Brokers)
	for i := range active {
		active[i] = int32(100 + i)
	}
	res := &SimResult{Defected: -1, Settlement: p.Set}

	for t := 0; t < spec.Ticks; t++ {
		if top := spec.DefectorAt(t, p.Set); top >= 0 {
			res.Defected = top
			active = slices.DeleteFunc(active, func(b int32) bool { return b == top })
		}
		sample := spec.SampleAt(t)
		for i := 0; i < int(sample.Demand); i++ {
			ok, _ := p.Adm.Admit(spec.Bid(p.Ctrl.Price(), rng))
			if !ok || len(active) == 0 {
				continue
			}
			// Carriers: 1–3 distinct brokers drawn from the active set.
			nc := 1 + rng.Intn(3)
			if nc > len(active) {
				nc = len(active)
			}
			carriers := make([]int32, 0, nc)
			for len(carriers) < nc {
				if b := active[rng.Intn(len(active))]; !slices.Contains(carriers, b) {
					carriers = append(carriers, b)
				}
			}
			p.Set.Record(carriers, 1)
		}
		q, err := p.Tick(sample)
		if err != nil {
			return nil, err
		}
		res.Prices = append(res.Prices, q.Price)
		res.Quotes = append(res.Quotes, q)
	}
	p.Close()
	res.Ledger = p.Set.Records()
	res.Admission = p.Adm.Stats()
	return res, nil
}
