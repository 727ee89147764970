package broker

import (
	"fmt"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// The exact small-instance answers and the fixed-depth Algorithm 2 the
// heuristics are tested against. No binary needs them, so they live with
// the tests.

// IsPathDominatingSet reports whether B is a Path Dominating Set of g
// (Problem 1): between every pair of nodes in V there exists a B-dominating
// path. Equivalently, the B-dominated subgraph has a single component that
// spans every node.
func IsPathDominatingSet(g *graph.Graph, brokers []int32) bool {
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	if n == 1 {
		return len(brokers) > 0
	}
	d := coverage.NewDominated(g, brokers)
	_, sizes := d.Components()
	return len(sizes) == 1 && sizes[0] == n
}

// ExactMinPDS finds a minimum Path Dominating Set by exhaustive subset
// search, or nil if none of size ≤ maxK exists. Exponential — only for
// validating heuristics on tiny graphs (n ≤ ~20).
func ExactMinPDS(g *graph.Graph, maxK int) []int32 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	if maxK > n {
		maxK = n
	}
	for k := 1; k <= maxK; k++ {
		if b := searchSubsets(n, k, func(b []int32) bool {
			return IsPathDominatingSet(g, b)
		}); b != nil {
			return b
		}
	}
	return nil
}

// ExactMCBG finds a broker set of size ≤ k maximizing f(B) = |B ∪ N(B)|
// subject to the MCBG dominating-path constraint, by exhaustive search.
// Exponential — tests only. Returns the best set and its coverage.
func ExactMCBG(g *graph.Graph, k int) ([]int32, int) {
	n := g.NumNodes()
	var best []int32
	bestF := -1
	var try func(start int, cur []int32)
	try = func(start int, cur []int32) {
		if len(cur) > 0 && SatisfiesMCBG(g, cur) {
			if f := coverage.F(g, cur); f > bestF {
				bestF = f
				best = append([]int32(nil), cur...)
			}
		}
		if len(cur) == k {
			return
		}
		for u := start; u < n; u++ {
			try(u+1, append(cur, int32(u)))
		}
	}
	try(0, nil)
	return best, bestF
}

// ExactMaxMCB finds max f(B) over all subsets of size ≤ k with no path
// constraint (the MCB problem), by exhaustive search. Tests only.
func ExactMaxMCB(g *graph.Graph, k int) ([]int32, int) {
	n := g.NumNodes()
	var best []int32
	bestF := -1
	var try func(start int, cur []int32)
	try = func(start int, cur []int32) {
		if len(cur) > 0 {
			if f := coverage.F(g, cur); f > bestF {
				bestF = f
				best = append([]int32(nil), cur...)
			}
		}
		if len(cur) == k {
			return
		}
		for u := start; u < n; u++ {
			try(u+1, append(cur, int32(u)))
		}
	}
	try(0, nil)
	return best, bestF
}

// searchSubsets enumerates size-k subsets of [0,n) in lexicographic order
// and returns the first satisfying pred, or nil.
func searchSubsets(n, k int, pred func([]int32) bool) []int32 {
	idx := make([]int32, k)
	for i := range idx {
		idx[i] = int32(i)
	}
	for {
		if pred(idx) {
			return append([]int32(nil), idx...)
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == int32(n-k+i) {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// ApproxMCBG runs the paper's Algorithm 2 on an (α,β)-graph: select
// x* = CoreSize(k, beta) coverage brokers greedily (Algorithm 1), then for
// the best root r add the cheapest stitching set B^r so that the shortest
// path from every core broker to r is (B^p ∪ B^r)-dominated. The result
// satisfies |B| ≤ k and guarantees a B-dominating path between every pair
// of covered nodes that lie in the root's component.
//
// Theorem 3: on an (α,β)-graph this is a (1−1/e)/θ approximation for MCBG
// with θ = 2⌈β/2⌉ adjusted for parity.
func ApproxMCBG(g *graph.Graph, k, beta int) (*ApproxResult, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	if beta < 1 {
		return nil, fmt.Errorf("broker: beta must be >= 1, got %d", beta)
	}
	order, err := GreedyMCB(g, k) // greedy prefix property: core = order[:x]
	if err != nil {
		return nil, err
	}
	x := CoreSize(k, beta)
	if x > len(order) {
		x = len(order)
	}
	res := stitchCore(g, order[:x])
	res.Brokers = appendUnique(res.Core, res.Stitch)
	return res, nil
}
