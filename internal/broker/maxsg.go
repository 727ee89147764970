package broker

import "brokerset/internal/graph"

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
	return MaxSGParallel(g, k, 1)
}

// MaxSGComplete runs MaxSG with an unbounded budget, returning the broker
// set that fully dominates the seed's connected component — the paper's
// "3,540-alliance" construction (6.8% of nodes at full scale).
func MaxSGComplete(g *graph.Graph) ([]int32, error) {
	return MaxSG(g, g.NumNodes())
}
