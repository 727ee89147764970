package broker

import (
	"fmt"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// ApproxResult carries the output of Algorithm 2 with its two parts: the
// coverage core B^p and the stitching brokers B^r.
type ApproxResult struct {
	// Brokers is the full set B = B^p ∪ B^r in deterministic order.
	Brokers []int32
	// Core is B^p, the greedy maximum-coverage prefix.
	Core []int32
	// Stitch is B^r, the brokers added along shortest paths so every pair
	// of core brokers is joined by a B-dominating path.
	Stitch []int32
	// Root is the core broker chosen as the stitching root (the root r in
	// Algorithm 2 minimizing |B^r_r|).
	Root int32
}

// CoreSize returns the x* of Algorithm 2: the largest core size such that
// the worst-case stitching cost still fits in budget k on an (α,β)-graph,
// i.e. the largest x with x + (x−1)(⌈β/2⌉−1) ≤ k.
func CoreSize(k, beta int) int {
	c := (beta + 1) / 2 // ⌈β/2⌉
	if c < 1 {
		c = 1
	}
	x := (k-1)/c + 1
	if x < 1 {
		x = 1
	}
	return x
}

// ApproxMCBGAdaptive runs the paper's Algorithm 2: a greedy coverage core
// (Algorithm 1), then for the best root r the cheapest stitching set B^r so
// that the shortest path from every core broker to r is B-dominated. It
// grows the core beyond the conservative x* = CoreSize(k, beta) while the
// stitched total still fits in k. Real topologies need far fewer stitch
// brokers than the worst-case bound, so this uses the whole budget (the
// paper's reported runs, e.g. 1,064 brokers for 85.71% coverage, do the
// same). Theorem 3's guarantee at x* — a (1−1/e)/θ approximation for MCBG
// on an (α,β)-graph — is preserved because the core only ever grows along
// the greedy order.
func ApproxMCBGAdaptive(g *graph.Graph, k, beta int) (*ApproxResult, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	if beta < 1 {
		return nil, fmt.Errorf("broker: beta must be >= 1, got %d", beta)
	}
	order, err := GreedyMCB(g, k)
	if err != nil {
		return nil, err
	}
	xGuaranteed := CoreSize(k, beta)
	if xGuaranteed > len(order) {
		xGuaranteed = len(order)
	}
	best := stitchCore(g, order[:xGuaranteed])
	best.Brokers = appendUnique(best.Core, best.Stitch)

	// Binary search for the largest feasible core size. Stitch cost is not
	// strictly monotone in x, so verify the found candidate; fall back to
	// the guaranteed core when the larger core overshoots.
	lo, hi := xGuaranteed, len(order)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		cand := stitchCore(g, order[:mid])
		if len(cand.Core)+len(cand.Stitch) <= k {
			cand.Brokers = appendUnique(cand.Core, cand.Stitch)
			best = cand
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return best, nil
}

// maxRootTrials bounds how many candidate stitching roots stitchCore tries.
const maxRootTrials = 16

// stitchCore implements lines 2–11 of Algorithm 2: for each candidate root
// r ∈ B^p, walk the shortest path from every other core broker to r and
// add the nodes needed to dominate each hop; keep the root with the
// smallest stitch set.
func stitchCore(g *graph.Graph, core []int32) *ApproxResult {
	res := &ApproxResult{Core: append([]int32(nil), core...), Root: -1}
	if len(core) <= 1 {
		if len(core) == 1 {
			res.Root = core[0]
		}
		return res
	}
	inCore := coverage.MaskOf(g, core)
	bestStitch := []int32(nil)
	bestSet := false
	// Algorithm 2 tries every core broker as the root; beyond a point the
	// extra roots only shave a handful of stitch brokers, so cap the trials
	// at the highest-coverage (earliest-greedy) candidates to keep the
	// adaptive search tractable at paper scale.
	roots := core
	if len(roots) > maxRootTrials {
		roots = roots[:maxRootTrials]
	}
	for _, r := range roots {
		// One BFS from r yields shortest paths to every core broker.
		_, parent := g.BFSTree(int(r))
		var stitch []int32
		inStitch := make(map[int32]bool)
		for _, v := range core {
			if v == r {
				continue
			}
			path := graph.PathTo(parent, int(v))
			if path == nil {
				continue // different component: no path to dominate
			}
			// Walk r→v adding the far endpoint of any undominated hop.
			for i := 0; i+1 < len(path); i++ {
				a, b := path[i], path[i+1]
				if inCore[a] || inCore[b] || inStitch[a] || inStitch[b] {
					continue
				}
				inStitch[b] = true
				stitch = append(stitch, b)
			}
		}
		if !bestSet || len(stitch) < len(bestStitch) {
			bestStitch = stitch
			bestSet = true
			res.Root = r
		}
	}
	res.Stitch = bestStitch
	return res
}

// appendUnique concatenates a then b, dropping duplicates while keeping
// first-occurrence order.
func appendUnique(a, b []int32) []int32 {
	var maxID int32 = -1
	for _, s := range [][]int32{a, b} {
		for _, v := range s {
			if v > maxID {
				maxID = v
			}
		}
	}
	// Dedup via one bitset over the id range: node ids are dense, so even
	// at the future tier this is a few KB, and membership tests are a word
	// probe instead of a map lookup (see BenchmarkAppendUnique).
	out := make([]int32, 0, len(a)+len(b))
	seen := graph.NewBitset(int(maxID + 1))
	for _, s := range [][]int32{a, b} {
		for _, v := range s {
			if seen.TestAndSet(v) {
				out = append(out, v)
			}
		}
	}
	return out
}
