// Package pagerank computes PageRank on undirected graphs by power
// iteration. The paper's PRB baseline ranks ASes/IXPs by PageRank; on an
// undirected graph each edge acts as two directed arcs.
package pagerank

import (
	"fmt"
	"sort"

	"brokerset/internal/graph"
)

// The conventional PageRank parameters: the probability of following an edge
// (1-damping teleports), the L1 change below which iteration stops, and the
// bound on power iterations. damping is typed so that 1-damping rounds the
// way the float64 subtraction always has and ranks stay bit for bit.
const (
	damping float64 = 0.85
	tol             = 1e-9
	maxIter         = 100
)

// Compute returns the PageRank vector of g (sums to 1). Dangling
// (degree-zero) nodes redistribute their mass uniformly.
func Compute(g *graph.Graph) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("pagerank: empty graph")
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for iter := 0; iter < maxIter; iter++ {
		var dangling float64
		for u := 0; u < n; u++ {
			if g.Degree(u) == 0 {
				dangling += rank[u]
			}
		}
		base := (1-damping)*inv + damping*dangling*inv
		for u := 0; u < n; u++ {
			next[u] = base
		}
		for u := 0; u < n; u++ {
			d := g.Degree(u)
			if d == 0 {
				continue
			}
			share := damping * rank[u] / float64(d)
			for _, v := range g.Neighbors(u) {
				next[v] += share
			}
		}
		var delta float64
		for u := 0; u < n; u++ {
			d := next[u] - rank[u]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank, nil
}

// Rank returns node ids sorted by decreasing PageRank (ties by id).
func Rank(g *graph.Graph) ([]int32, []float64, error) {
	pr, err := Compute(g)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]int32, len(pr))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		if pr[ids[i]] != pr[ids[j]] {
			return pr[ids[i]] > pr[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids, pr, nil
}
