// Package market is the paper's §7 economics run as a market over time, the
// model behind `experiments ext-market`: the game theory of internal/econ
// driven tick by tick through a seeded demand scenario. A Controller samples
// utilization and demand, re-solves the Stackelberg leader-pricing game
// against a demand-scaled follower population, applies a congestion
// multiplier, and publishes the smoothed result as the current broker price.
// An Admission gate prices scarcity — below the congestion threshold
// everything (zero bids included) is admitted; above it a request must bid
// at least the congestion-adjusted price. A Settlement engine accumulates
// which brokers carried each admitted unit of traffic and periodically
// splits the accrued revenue by Shapley value (exact for small carrier sets,
// seeded Monte-Carlo beyond), appending conservation-checked records to an
// append-only ledger. A Plane holds the three and paces them: one reprice
// per Tick, one settlement per window of ticks. Simulate runs a scenario
// through a Plane.
//
// Everything in this package is deterministic given its input sequence:
// pricing is a pure function of the sampled state, and settlement sampling
// is seeded per window, so a replayed scenario reproduces the exact price
// trajectory and ledger (see TestScenarioDeterminism and TestSimulateGolden).
package market

import (
	"fmt"
	"math"

	"brokerset/internal/econ"
)

// Sample is one observation of the market the controller prices against:
// what a scenario's tick offers.
type Sample struct {
	// Utilization is the share of capacity the demand takes, in [0,1].
	Utilization float64
	// Demand is offered load over the tick, in requests.
	Demand float64
}

// The pricing loop's fixed inputs, a calibrated population matching the §7
// evaluation's shape.
const (
	// congestionThreshold is the utilization at and above which admission
	// prices scarcity. Below it, all traffic is admitted. Typed, like
	// smoothing, so 1-congestionThreshold rounds as a float64 subtraction.
	congestionThreshold float64 = 0.7
	// congestionGain scales how fast the price multiplier grows past the
	// threshold; maxMultiplier caps it.
	congestionGain = 4
	maxMultiplier  = 8
	// smoothing is the EMA weight of the newest equilibrium price. Typed, so
	// 1-smoothing rounds the way the float64 subtraction always has and a
	// replayed ledger stays bitwise what it was.
	smoothing float64 = 0.3
)

// leader is the Stackelberg leader (the broker coalition).
var leader = econ.Broker{UnitCost: 0.4, HireFraction: 0.1, Beta: 4, MaxPrice: 12}

// customers returns the follower population template: three AS classes
// (high-paid movers, mid-tier, low-tier laggards) with parameters in the
// ranges internal/experiments uses for the §7 reproduction. Reprice scales
// each follower's Value by the observed demand index before solving, so the
// equilibrium price tracks measured demand instead of a static guess.
func customers() []econ.Customer {
	return []econ.Customer{
		{Name: "high-paid", BaseRate: 0.10, Value: 8, Curvature: 3, TransitGain: 1.5, PaidRelief: 2.5},
		{Name: "mid-tier", BaseRate: 0.15, Value: 6, Curvature: 2, TransitGain: 2.0, PaidRelief: 1.0},
		{Name: "low-tier", BaseRate: 0.20, Value: 4, Curvature: 2, TransitGain: 2.5, PaidRelief: 0.5},
	}
}

// Quote is the externally visible pricing state at one instant.
type Quote struct {
	// Price is the congestion-adjusted, smoothed current price per
	// admitted request.
	Price float64 `json:"price"`
	// BasePrice is the raw Stackelberg equilibrium price before the
	// congestion multiplier and smoothing.
	BasePrice float64 `json:"base_price"`
	// Multiplier is the congestion multiplier applied at the last reprice.
	Multiplier float64 `json:"multiplier"`
	// Congested reports utilization at or above the threshold: admission
	// is comparing bids against Price.
	Congested bool `json:"congested"`
	// Utilization is the utilization the last reprice saw.
	Utilization float64 `json:"utilization"`
	// Adoption is the total follower adoption α at the last equilibrium.
	Adoption float64 `json:"adoption"`
	// Tick counts reprices since the controller started.
	Tick uint64 `json:"tick"`
}

// Controller runs the Stackelberg pricing loop. Reprice is called by
// Plane.Tick; between calls the admission gate reads the quote. Like the
// rest of the package it is sequential: Simulate drives it from one
// goroutine.
type Controller struct {
	// demandRef is the per-tick demand (requests) that maps to demand index
	// 1.0. Observed demand is normalized by it and clamped to [0.25, 4]
	// before scaling the follower population.
	demandRef float64

	// quote is the last reprice's result; the price, the congestion test
	// and the tick count are all read from it.
	quote Quote
}

// NewController builds a controller whose demand index is 1.0 at demandRef
// requests a tick, and primes the price with the equilibrium of the unscaled
// follower population, so the first admitted request already pays a
// meaningful price.
func NewController(demandRef float64) (*Controller, error) {
	c := &Controller{demandRef: demandRef}
	eq, err := econ.StackelbergEquilibrium(leader, customers())
	if err != nil {
		return nil, fmt.Errorf("market: priming equilibrium: %w", err)
	}
	c.quote = Quote{Price: eq.Price, BasePrice: eq.Price, Multiplier: 1, Adoption: eq.TotalTraffic}
	return c, nil
}

// demandIndex normalizes observed demand into the [0.25, 4] scale factor
// applied to the follower population's Value.
func (c *Controller) demandIndex(demand float64) float64 {
	idx := demand / c.demandRef
	if idx < 0.25 {
		return 0.25
	}
	if idx > 4 {
		return 4
	}
	return idx
}

// multiplier maps utilization to the congestion price multiplier: 1 below
// the threshold, then 1 + congestionGain·(u−thr)/(1−thr) capped at
// maxMultiplier.
func multiplier(u float64) float64 {
	const thr = congestionThreshold
	if u < thr {
		return 1
	}
	return math.Min(1+congestionGain*(u-thr)/(1-thr), maxMultiplier)
}

// Reprice runs one pricing iteration against the sample: scale the
// follower population by the demand index, solve the Stackelberg game,
// apply the congestion multiplier, and EMA-smooth into the published
// price. It returns the new quote. Deterministic: the same sample sequence
// always yields the same price trajectory.
func (c *Controller) Reprice(s Sample) (Quote, error) {
	idx := c.demandIndex(s.Demand)
	scaled := customers()
	for i := range scaled {
		scaled[i].Value *= idx
	}
	eq, err := econ.StackelbergEquilibrium(leader, scaled)
	if err != nil {
		return c.quote, err
	}
	u := s.Utilization
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	mult := multiplier(u)
	target := eq.Price * mult
	price := (1-smoothing)*c.quote.Price + smoothing*target

	c.quote = Quote{
		Price:       price,
		BasePrice:   eq.Price,
		Multiplier:  mult,
		Congested:   u >= congestionThreshold,
		Utilization: u,
		Adoption:    eq.TotalTraffic,
		Tick:        c.quote.Tick + 1,
	}
	return c.quote, nil
}

// Price returns the current published price.
func (c *Controller) Price() float64 { return c.quote.Price }

// Ticks returns the number of reprices run.
func (c *Controller) Ticks() uint64 { return c.quote.Tick }

// Plane is the market as one value: the controller, the admission gate it
// prices, the settlement engine, and the window that paces settlement on the
// controller's tick clock. Its driver, Simulate, only samples its scenario
// and calls Tick.
type Plane struct {
	Ctrl *Controller
	Adm  *Admission
	Set  *Settlement
	// window is the settlement window length in controller ticks.
	window uint64
}

// NewPlane builds a plane whose controller indexes demand against demandRef,
// whose settlement engine draws from seed, and which closes a window every
// window (>= 1) ticks.
func NewPlane(demandRef float64, seed int64, window int) (*Plane, error) {
	ctrl, err := NewController(demandRef)
	if err != nil {
		return nil, err
	}
	return &Plane{
		Ctrl: ctrl, Adm: NewAdmission(ctrl), Set: NewSettlement(seed),
		window: uint64(window),
	}, nil
}

// Tick is one beat of the plane: reprice from s and, when the reprice closes
// a window, settle the revenue the gate took in since the last close.
func (p *Plane) Tick(s Sample) (Quote, error) {
	q, err := p.Ctrl.Reprice(s)
	if err == nil && q.Tick%p.window == 0 {
		p.Set.Settle(p.Adm.DrainRevenue(), q.Tick)
	}
	return q, err
}

// Close settles the partial window at the end of a run, when it took in
// revenue or carried traffic, so every unit lands in the ledger.
func (p *Plane) Close() {
	if rev := p.Adm.DrainRevenue(); rev > 0 || p.Set.PendingUnits() > 0 {
		p.Set.Settle(rev, p.Ctrl.Ticks())
	}
}
