package broker

import (
	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// MaxSG runs the paper's Algorithm 3, MaxSubGraph-Greedy: grow the broker
// set from a max-degree seed, each round adding the node that maximizes the
// size of the dominated connected subgraph. Candidates are restricted to
// N(B) (nodes adjacent to a current broker), which keeps B connected in G —
// therefore every covered pair has a B-dominating path through B, and the
// algorithm "totally dominates the maximum connected subgraph" when run to
// completion.
//
// It stops when |B| = k or no candidate adds coverage ("V − (B ∪ N(B)) = ∅"
// within the seed's component). Complexity is O(k(|V|+|E|)) via the same
// lazy-gain queue as Algorithm 1 (gains are submodular-decreasing, so stale
// entries only overestimate).
func MaxSG(g *graph.Graph, k int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	seed := g.MaxDegreeNode()
	st := coverage.NewState(g)
	st.Add(seed)
	brokers := []int32{int32(seed)}

	pq := newGainQueue(64)
	inQueue := make([]bool, g.NumNodes())
	enqueueNeighbors := func(u int, round int) {
		for _, v := range g.Neighbors(u) {
			if !inQueue[v] && !st.InB(int(v)) {
				inQueue[v] = true
				pq.push(v, st.Gain(int(v)), round)
			}
		}
	}
	enqueueNeighbors(seed, 0)

	for round := 1; len(brokers) < k && pq.Len() > 0; round++ {
		for pq.Len() > 0 {
			top := pq.peek()
			if top.round == round {
				break
			}
			pq.update(st.Gain(int(top.node)), round)
		}
		if pq.Len() == 0 {
			break
		}
		best := pq.pop()
		inQueue[best.node] = false
		if st.InB(int(best.node)) {
			continue
		}
		if best.gain == 0 {
			// Even zero-gain candidates may be needed? No: a zero-gain
			// candidate adds no coverage, and all remaining candidates have
			// gain <= 0 by heap order, so the component is fully covered.
			break
		}
		st.Add(int(best.node))
		brokers = append(brokers, best.node)
		enqueueNeighbors(int(best.node), round)
	}
	return brokers, nil
}

// MaxSGComplete runs MaxSG with an unbounded budget, returning the broker
// set that fully dominates the seed's connected component — the paper's
// "3,540-alliance" construction (6.8% of nodes at full scale).
func MaxSGComplete(g *graph.Graph) ([]int32, error) {
	return MaxSG(g, g.NumNodes())
}
