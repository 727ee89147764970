package market

import "math"

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

	admitted     uint64  // all admissions
	admittedFree uint64  // admissions that paid nothing (zero bid)
	rejected     uint64  // congested refusals (bid < price)
	revenue      float64 // accumulated payments, drained at each settlement
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
	q := a.ctrl.quote
	price := q.Price
	if !q.Congested {
		a.admitted++
		if bid <= 0 {
			a.admittedFree++
		} else {
			a.earn(min(bid, price))
		}
		return true, price
	}
	if bid < price {
		a.rejected++
		return false, price
	}
	a.admitted++
	a.earn(price)
	return true, price
}

// earn adds a positive payment to the revenue.
func (a *Admission) earn(v float64) {
	if v > 0 {
		a.revenue += v
	}
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
		Admitted:      a.admitted,
		AdmittedFree:  a.admittedFree,
		PriceRejected: a.rejected,
		Revenue:       a.revenue,
	}
}

// DrainRevenue takes the accumulated revenue and resets it to zero — the
// settlement engine calls it at each window close so every unit of revenue
// lands in exactly one settlement record.
func (a *Admission) DrainRevenue() float64 {
	rev := a.revenue
	a.revenue = 0
	return rev
}
