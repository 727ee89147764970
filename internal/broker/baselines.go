package broker

import (
	"fmt"
	"math/rand"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/pagerank"
)

// SetCover implements the SC baseline (the paper's reference [31]): visit
// nodes in random order and add any not-yet-dominated node to the set,
// yielding a valid dominating set of each visited component that is "not
// necessarily the smallest" — on the AS graph it lands around 76% of all
// nodes (Fig. 2a), which is what makes the comparison interesting.
func SetCover(g *graph.Graph, rng *rand.Rand) []int32 {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := g.NumNodes()
	st := coverage.NewState(g)
	var brokers []int32
	for _, u := range rng.Perm(n) {
		if !st.IsCovered(u) {
			st.Add(u)
			brokers = append(brokers, int32(u))
		}
	}
	return brokers
}

// DegreeBased implements the DB baseline: the k highest-degree nodes.
func DegreeBased(g *graph.Graph, k int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	order := g.NodesByDegreeDesc()
	if k > len(order) {
		k = len(order)
	}
	return append([]int32(nil), order[:k]...), nil
}

// PageRankBased implements the PRB baseline: the k highest-PageRank nodes.
func PageRankBased(g *graph.Graph, k int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	order, _, err := pagerank.Rank(g)
	if err != nil {
		return nil, fmt.Errorf("broker: PRB baseline: %w", err)
	}
	if k > len(order) {
		k = len(order)
	}
	return append([]int32(nil), order[:k]...), nil
}

// IXPBased implements the IXPB baseline: every IXP whose degree (member
// count) is at least minDegree. minDegree 0 selects all IXPs, the
// configuration behind the paper's "322 brokers reach at most 15.70%
// E2E connectivity" data point.
func IXPBased(g *graph.Graph, isIXP []bool, minDegree int) ([]int32, error) {
	if len(isIXP) != g.NumNodes() {
		return nil, fmt.Errorf("broker: IXP mask length %d != %d nodes", len(isIXP), g.NumNodes())
	}
	var brokers []int32
	for u := 0; u < g.NumNodes(); u++ {
		if isIXP[u] && g.Degree(u) >= minDegree {
			brokers = append(brokers, int32(u))
		}
	}
	return brokers, nil
}

// Tier1Only implements the Tier1-Only baseline: every tier-1 AS.
func Tier1Only(g *graph.Graph, tier []uint8) ([]int32, error) {
	if len(tier) != g.NumNodes() {
		return nil, fmt.Errorf("broker: tier slice length %d != %d nodes", len(tier), g.NumNodes())
	}
	var brokers []int32
	for u := 0; u < g.NumNodes(); u++ {
		if tier[u] == 1 {
			brokers = append(brokers, int32(u))
		}
	}
	return brokers, nil
}
