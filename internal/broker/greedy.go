// Package broker implements the paper's broker-set selection algorithms:
//
//   - Algorithm 1: greedy maximum coverage (MCB) with the classic
//     (1−1/e) guarantee, accelerated by CELF lazy evaluation and an
//     optional worker pool (GreedyMCBParallel);
//   - Algorithm 2: the MCBG approximation that pre-selects a coverage core
//     B^p and stitches it with extra brokers B^r so every covered pair has
//     a B-dominating path;
//   - Algorithm 3: the linear-time MaxSubGraph-Greedy heuristic (MaxSG),
//     also with a parallel variant;
//   - incremental broker-set maintenance under churn (MaintainIncremental);
//   - the SC, DB (degree), PRB (PageRank), IXPB and Tier1-Only baselines;
//   - PDS (Path Dominating Set) verification plus exact brute-force
//     solvers used to validate the heuristics on small instances.
package broker

import (
	"fmt"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// GreedyMCB runs the paper's Algorithm 1: greedy maximum coverage. It
// returns up to k brokers chosen to maximize f(B) = |B ∪ N(B)|, with the
// (1−1/e) approximation guarantee (Lemma 4). CELF lazy evaluation makes it
// near-linear in practice while provably returning the same set as the
// naive greedy (the coverage function is submodular, Lemma 3).
//
// Selection stops early when coverage is complete. The returned set is in
// selection order, so any prefix is the greedy solution for a smaller k.
func GreedyMCB(g *graph.Graph, k int) ([]int32, error) {
	return GreedyMCBParallel(g, k, 1)
}

// GreedyMCBNaive is Algorithm 1 without lazy evaluation: every round
// re-evaluates every candidate. It exists as the reference implementation
// for tests and the CELF ablation benchmark; output is identical to
// GreedyMCB up to deterministic tie-breaking (smaller node id wins).
func GreedyMCBNaive(g *graph.Graph, k int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	st := coverage.NewState(g)
	brokers := make([]int32, 0, k)
	for len(brokers) < k {
		best, bestGain := -1, 0
		for u := 0; u < g.NumNodes(); u++ {
			if st.InB(u) {
				continue
			}
			if gn := st.Gain(u); gn > bestGain {
				best, bestGain = u, gn
			}
		}
		if best < 0 {
			break
		}
		st.Add(best)
		brokers = append(brokers, int32(best))
	}
	return brokers, nil
}

func checkK(g *graph.Graph, k int) error {
	if k < 1 {
		return fmt.Errorf("broker: k must be >= 1, got %d", k)
	}
	if g.NumNodes() == 0 {
		return fmt.Errorf("broker: empty graph")
	}
	return nil
}

// gainQueue is a max-heap of candidate nodes keyed by (possibly stale)
// marginal gain, with the CELF round stamp. Ties break toward the smaller
// node id so lazy and naive greedy pick identical sets.
//
// The heap is concrete-typed with hand-rolled sift up/down: no
// container/heap, no interface{} boxing, and push/pop touch only the
// backing slice, so the hot CELF loop allocates nothing after the initial
// heapify.
type gainQueue struct {
	items []gainItem
}

type gainItem struct {
	node  int32
	gain  int
	round int
}

// less orders the max-heap: higher gain first, smaller node id on ties.
func (a gainItem) less(b gainItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.node < b.node
}

func newGainQueue(capacity int) *gainQueue {
	return &gainQueue{items: make([]gainItem, 0, capacity)}
}

// Len returns the number of queued candidates.
func (q *gainQueue) Len() int { return len(q.items) }

// push inserts a candidate. Amortized zero-alloc once capacity is reached.
func (q *gainQueue) push(node int32, gain, round int) {
	q.items = append(q.items, gainItem{node: node, gain: gain, round: round})
	q.siftUp(len(q.items) - 1)
}

// peek returns the top candidate without removing it.
func (q *gainQueue) peek() gainItem { return q.items[0] }

// pop removes and returns the top candidate.
func (q *gainQueue) pop() gainItem {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top
}

// init heapifies the backing slice in O(n) — used after bulk-loading the
// initial candidate gains, which beats n pushes at paper scale.
func (q *gainQueue) init() {
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// bulkAppend appends an item without restoring heap order; callers must
// init() before the next peek/pop.
func (q *gainQueue) bulkAppend(node int32, gain, round int) {
	q.items = append(q.items, gainItem{node: node, gain: gain, round: round})
}

func (q *gainQueue) siftUp(i int) {
	item := q.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !item.less(q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = item
}

func (q *gainQueue) siftDown(i int) {
	n := len(q.items)
	item := q.items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.items[r].less(q.items[child]) {
			child = r
		}
		if !q.items[child].less(item) {
			break
		}
		q.items[i] = q.items[child]
		i = child
	}
	q.items[i] = item
}
