package broker

import (
	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// SatisfiesMCBG reports whether B satisfies the MCBG side constraint
// (Problem 2): every pair of covered nodes (u, v ∈ B ∪ N(B)) is joined by a
// B-dominating path — i.e. all covered nodes share one dominated component.
func SatisfiesMCBG(g *graph.Graph, brokers []int32) bool {
	st := coverage.NewState(g)
	for _, b := range brokers {
		st.Add(int(b))
	}
	d := coverage.NewDominated(g, brokers)
	comp, _ := d.Components()
	first := graph.Unreached
	for u := 0; u < g.NumNodes(); u++ {
		if !st.IsCovered(u) {
			continue
		}
		if comp[u] == graph.Unreached {
			return false
		}
		if first == graph.Unreached {
			first = comp[u]
		} else if comp[u] != first {
			return false
		}
	}
	return true
}
