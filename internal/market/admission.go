package market

import (
	"math"
	"sync/atomic"
)

// Admission is the priced admission gate: Admit(bid) decides against the
// controller's published price. Semantics:
//
//   - Uncongested (utilization below the threshold at the last reprice):
//     every request is admitted. A positive bid pays min(bid, price); a
//     zero bid rides free — the free-rider regime the free-rider scenario
//     measures.
//   - Congested: a request is admitted iff bid ≥ price, and pays price.
//     Refused requests are told the quote so they can re-bid.
type Admission struct {
	ctrl *Controller

	admitted     atomic.Uint64 // all admissions
	admittedFree atomic.Uint64 // admissions that paid nothing (zero bid)
	rejected     atomic.Uint64 // congested refusals (bid < price)
	revenue      atomicFloat   // accumulated payments, drained at each settlement
}

// NewAdmission builds the gate over a controller.
func NewAdmission(ctrl *Controller) *Admission {
	return &Admission{ctrl: ctrl}
}

// Admit admits or refuses one request bidding bid, and returns the posted
// price it was judged against. A NaN bid is no bid: it compares
// false against everything, so it would otherwise pay NaN into the revenue
// while uncongested and outbid every finite bid while congested.
func (a *Admission) Admit(bid float64) (bool, float64) {
	if math.IsNaN(bid) {
		bid = 0
	}
	price := a.ctrl.Price()
	if !a.ctrl.congested.Load() {
		a.admitted.Add(1)
		if bid <= 0 {
			a.admittedFree.Add(1)
		} else {
			pay := bid
			if pay > price {
				pay = price
			}
			a.revenue.add(pay)
		}
		return true, price
	}
	if bid < price {
		a.rejected.Add(1)
		return false, price
	}
	a.admitted.Add(1)
	a.revenue.add(price)
	return true, price
}

// AdmissionStats is a point-in-time snapshot of the gate's counters.
type AdmissionStats struct {
	// Admitted counts all admitted requests; AdmittedFree is the zero-bid
	// subset that paid nothing.
	Admitted     uint64 `json:"admitted"`
	AdmittedFree uint64 `json:"admitted_free"`
	// PriceRejected counts congested refusals (bid below quote).
	PriceRejected uint64 `json:"price_rejected"`
	// Revenue is the accumulated payments in price units.
	Revenue float64 `json:"revenue"`
}

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Admitted:      a.admitted.Load(),
		AdmittedFree:  a.admittedFree.Load(),
		PriceRejected: a.rejected.Load(),
		Revenue:       a.revenue.load(),
	}
}

// DrainRevenue atomically takes the accumulated revenue and resets it to
// zero — the settlement engine calls it at each window close so every unit
// of revenue lands in exactly one settlement record.
func (a *Admission) DrainRevenue() float64 { return a.revenue.swap(0) }
