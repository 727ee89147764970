// Package workload generates and drives closed-loop query workloads
// against the broker coalition's query plane: Zipf-distributed src/dst
// demand (heavy head over high-degree networks, matching the gravity model
// internal/sim uses for admission studies) replayed by a pool of
// synchronous workers, reporting achieved QPS, cache hit rate, and latency
// quantiles.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"brokerset/internal/topology"
)

// PairGen draws Zipf-distributed (src, dst) node pairs: nodes are ranked
// by degree and rank popularity follows a Zipf law, so a small set of
// well-connected networks dominates the demand — the worst case for a
// cacheless server and the realistic case for an Internet broker. IXPs are
// excluded (they switch traffic, they do not originate it).
type PairGen struct {
	nodes []int32
	rng   *rand.Rand
	zipf  *rand.Zipf
}

// NewPairGen builds a generator over top. s is the Zipf exponent (must be
// > 1; ~1.1 is Internet-like head-heaviness).
func NewPairGen(top *topology.Topology, s float64, seed int64) (*PairGen, error) {
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent must be > 1, got %f", s)
	}
	n := top.NumNodes()
	var nodes []int32
	for u := 0; u < n; u++ {
		if !top.IsIXP(u) {
			nodes = append(nodes, int32(u))
		}
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 non-IXP nodes, have %d", len(nodes))
	}
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := top.Graph.Degree(int(nodes[i])), top.Graph.Degree(int(nodes[j]))
		if di != dj {
			return di > dj
		}
		return nodes[i] < nodes[j] // deterministic tiebreak
	})
	rng := rand.New(rand.NewSource(seed))
	return &PairGen{
		nodes: nodes,
		rng:   rng,
		zipf:  rand.NewZipf(rng, s, 1, uint64(len(nodes)-1)),
	}, nil
}

// Pair draws one (src, dst) demand pair with src != dst. Not safe for
// concurrent use; give each worker its own generator.
func (g *PairGen) Pair() (src, dst int32) {
	for {
		src = g.nodes[g.zipf.Uint64()]
		dst = g.nodes[g.zipf.Uint64()]
		if src != dst {
			return src, dst
		}
	}
}
