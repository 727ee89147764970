package topology

import (
	"fmt"
	"math/rand"

	"brokerset/internal/graph"
)

// The classic generators below produce Topology values whose nodes are all
// ClassUnknown ASes with peering edges; they exist for the paper's Table 3
// comparison ("ER-Random, WS-Small-World and BA-Scale-free have the same
// vertex sets ... but the edge sets are generated according to the
// topologies' features").

// GenerateER builds an Erdős–Rényi G(n, m) random graph: m edges sampled
// uniformly without replacement.
func GenerateER(n, m int, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: ER needs n >= 2, got %d", n)
	}
	maxEdges := graph.TotalPairs(n)
	if int64(m) > maxEdges {
		return nil, fmt.Errorf("topology: ER m=%d exceeds max %d", m, maxEdges)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := newEdgeSet(m)
	for seen.len() < m {
		if u, v := rng.Intn(n), rng.Intn(n); u != v && seen.add(u, v) {
			b.AddEdge(u, v)
		}
	}
	return plainTopology(b, n, "ER")
}

// GenerateWS builds a Watts–Strogatz small-world graph: a ring lattice where
// each node links to its k nearest neighbours (k even), with each edge
// rewired to a uniform endpoint with probability p.
func GenerateWS(n, k int, p float64, seed int64) (*Topology, error) {
	if n < 4 || k < 2 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("topology: WS needs n>=4 and even 2<=k<n, got n=%d k=%d", n, k)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("topology: WS rewire probability %f outside [0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := newEdgeSet(n * k / 2)
	add := func(u, v int) bool {
		if u == v || !seen.add(u, v) {
			return false
		}
		b.AddEdge(u, v)
		return true
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < p {
				// Rewire: keep u, pick a fresh endpoint.
				for tries := 0; tries < 50; tries++ {
					w := rng.Intn(n)
					if add(u, w) {
						v = -1
						break
					}
				}
				if v == -1 {
					continue
				}
			}
			add(u, v)
		}
	}
	return plainTopology(b, n, "WS")
}

// GenerateBA builds a Barabási–Albert scale-free graph where each arriving
// node attaches to mPerNode existing nodes chosen degree-preferentially.
func GenerateBA(n, mPerNode int, seed int64) (*Topology, error) {
	if n < 2 || mPerNode < 1 || mPerNode >= n {
		return nil, fmt.Errorf("topology: BA needs n>=2 and 1<=m<n, got n=%d m=%d", n, mPerNode)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := newEdgeSet(n * mPerNode)
	endpoints := make([]int32, 0, 2*n*mPerNode)
	add := func(u, v int) bool {
		if u == v || !seen.add(u, v) {
			return false
		}
		b.AddEdge(u, v)
		endpoints = append(endpoints, int32(u), int32(v))
		return true
	}
	// Seed core: a small clique of m+1 nodes.
	core := mPerNode + 1
	for u := 0; u < core; u++ {
		for v := u + 1; v < core; v++ {
			add(u, v)
		}
	}
	for u := core; u < n; u++ {
		attached := 0
		for tries := 0; attached < mPerNode && tries < 60*mPerNode; tries++ {
			v := int(endpoints[rng.Intn(len(endpoints))])
			if add(u, v) {
				attached++
			}
		}
	}
	return plainTopology(b, n, "BA")
}

func plainTopology(b *graph.Builder, n int, prefix string) (*Topology, error) {
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	t := &Topology{
		Graph:  g,
		Class:  make([]Class, n),
		Tier:   make([]uint8, n),
		Name:   make([]string, n),
		arcRel: make([]Relationship, g.NumArcs()),
	}
	for u := 0; u < n; u++ {
		t.Tier[u] = 3
		t.Name[u] = fmt.Sprintf("%s%d", prefix, u)
	}
	for a := range t.arcRel {
		t.arcRel[a] = RelPeer
	}
	return t, nil
}
