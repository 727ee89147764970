package graph

import (
	"math"
	"math/rand"
	"sort"
)

// AvgDegree returns the mean node degree (2m/n); 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// NodesByDegreeDesc returns all node ids sorted by decreasing degree,
// breaking ties by increasing id so the order is deterministic.
func (g *Graph) NodesByDegreeDesc() []int32 {
	n := g.NumNodes()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(int(ids[i])), g.Degree(int(ids[j]))
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// HopDistribution estimates the distribution of pairwise hop distances by
// running full BFS from `samples` uniformly chosen source nodes. It returns
// counts[d] = number of sampled (source, target) pairs at distance d, and
// the number of sampled pairs that were disconnected. With samples >= n the
// computation is exact over all sources.
func (g *Graph) HopDistribution(samples int, rng *rand.Rand) (counts []int64, disconnected int64) {
	n := g.NumNodes()
	if n == 0 {
		return nil, 0
	}
	srcs := SampleNodes(n, samples, rng)
	b := NewBFS(g)
	for _, s := range srcs {
		b.Run(int(s))
		for u, d := range b.Dist() {
			if u == int(s) {
				continue
			}
			if d == Unreached {
				disconnected++
				continue
			}
			for int(d) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	return counts, disconnected
}

// SampleNodes returns k distinct node ids sampled uniformly from [0, n); if
// k >= n it returns all node ids in order. A nil rng yields the
// deterministic prefix 0..k-1 shuffled by a fixed seed.
func SampleNodes(n, k int, rng *rand.Rand) []int32 {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if k >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := rng.Perm(n)
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = int32(perm[i])
	}
	return out
}

// AlphaForBeta estimates Prob[d(u,v) <= beta] over connected sampled pairs,
// i.e. the alpha for which g is an (alpha, beta)-graph (Definition 2 in the
// paper). It samples `samples` BFS sources; use samples >= n for exactness.
func (g *Graph) AlphaForBeta(beta, samples int, rng *rand.Rand) float64 {
	counts, disconnected := g.HopDistribution(samples, rng)
	var within, total int64
	for d, c := range counts {
		total += c
		if d <= beta {
			within += c
		}
	}
	total += disconnected
	if total == 0 {
		return 0
	}
	return float64(within) / float64(total)
}

// EffectiveDiameter estimates the q-effective diameter: the smallest hop
// count d such that at least fraction q of connected sampled pairs are
// within d hops. The paper's (alpha, beta)-graph definition requires beta
// to be "much smaller than the diameter"; this gives the comparison point.
func (g *Graph) EffectiveDiameter(q float64, samples int, rng *rand.Rand) int {
	if q <= 0 || q > 1 {
		return 0
	}
	counts, _ := g.HopDistribution(samples, rng)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum int64
	for d, c := range counts {
		cum += c
		if cum >= target {
			return d
		}
	}
	return len(counts) - 1
}
