// Package econ implements the paper's Section 7 economic model: the Nash
// bargaining between the broker coalition B and a hired ("employee") AS,
// the Stackelberg pricing game between B and its customer ASes, and the
// Shapley-value revenue distribution inside the coalition with the
// superadditivity / supermodularity stability checks of Theorems 7–8.
package econ

import "fmt"

// BargainParams parameterizes the employee-AS bargaining of §7.1 (Eqs 5–7).
type BargainParams struct {
	// PriceB is p_B, the routing price B charges per unit volume (collected
	// twice: from the customer and from the destination side).
	PriceB float64
	// Cost is c, every AS's cost to route one unit of traffic.
	Cost float64
	// Beta is the (α,β)-graph hop bound: the employee assumes B hires at
	// most ⌈β/2⌉ employees on a dominating path.
	Beta int
}

// BargainResult is the Nash bargaining solution.
type BargainResult struct {
	// PriceJ is the agreed per-unit payment p_j to the employee AS.
	PriceJ float64
	// UtilityJ is u_j = p_j − c.
	UtilityJ float64
	// UtilityB is u_B = 2 p_B − ⌈β/2⌉ p_j − ⌈β/2⌉ c.
	UtilityB float64
	// Product is the Nash product u_j · u_B at the solution.
	Product float64
}

// hires returns ⌈β/2⌉, the employee's worst-case assumption on how many
// employees B pays along one dominating path.
func hires(beta int) float64 { return float64((beta + 1) / 2) }

// NashBargain solves max_{p_j > c} (p_j − c)(2 p_B − m p_j − m c) with
// m = ⌈β/2⌉ (Theorem 5). The optimum is interior and has the closed form
// p_j* = p_B / m; it errors when the surplus is non-positive (p_B ≤ m·c),
// in which case no agreement exists.
func NashBargain(p BargainParams) (BargainResult, error) {
	if p.Beta < 1 {
		return BargainResult{}, fmt.Errorf("econ: beta must be >= 1, got %d", p.Beta)
	}
	if p.Cost < 0 || p.PriceB <= 0 {
		return BargainResult{}, fmt.Errorf("econ: need cost >= 0 and priceB > 0, got c=%f p_B=%f", p.Cost, p.PriceB)
	}
	m := hires(p.Beta)
	pj := p.PriceB / m
	if pj <= p.Cost {
		return BargainResult{}, fmt.Errorf("econ: no bargaining surplus: p_B=%f <= %0.f*c=%f", p.PriceB, m, m*p.Cost)
	}
	res := BargainResult{
		PriceJ:   pj,
		UtilityJ: pj - p.Cost,
		UtilityB: 2*p.PriceB - m*pj - m*p.Cost,
	}
	res.Product = res.UtilityJ * res.UtilityB
	return res, nil
}

// goldenMax maximizes a unimodal f over [lo, hi] by golden-section search.
func goldenMax(f func(float64) float64, lo, hi float64, iters int) (x, fx float64) {
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			a = x1
			x1, f1 = x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		} else {
			b = x2
			x2, f2 = x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		}
	}
	mid := (a + b) / 2
	return mid, f(mid)
}
