package coverage

import (
	"slices"

	"brokerset/internal/graph"
)

// Incremental maintains the saturated E2E connectivity of a growing broker
// set using a union-find over dominated edges: adding broker u only
// dominates u's incident edges, so AddBroker costs O(deg(u) α(n)) instead
// of an O(V+E) recomputation. Used by marginal-gain analyses (Fig 3) and
// broker-set maintenance. Not safe for concurrent use: even the read-only
// probes compress paths and share scratch.
type Incremental struct {
	g      *graph.Graph
	inB    []bool
	parent []int32
	size   []int32
	// pairs is Σ size·(size−1)/2 over current components; uncovered nodes
	// are singletons contributing nothing.
	pairs int64
	// roots is Gain's scratch: the distinct neighbour components of the
	// probed node. The fan-in is tiny, so a linear scan beats a map.
	roots []int32
}

// NewIncremental returns the empty-broker-set state (connectivity 0).
func NewIncremental(g *graph.Graph) *Incremental {
	inc := &Incremental{}
	inc.Reset(g)
	return inc
}

// Reset returns inc to the empty-broker-set state over g, reusing its arrays
// when they are large enough — a churn healer replays a union-find over a
// graph of the same size on every repair. The zero Incremental may be Reset.
func (inc *Incremental) Reset(g *graph.Graph) {
	n := g.NumNodes()
	if cap(inc.parent) < n {
		inc.inB, inc.parent, inc.size = make([]bool, n), make([]int32, n), make([]int32, n)
	}
	inc.g, inc.pairs = g, 0
	inc.inB, inc.parent, inc.size = inc.inB[:n], inc.parent[:n], inc.size[:n]
	clear(inc.inB)
	for i := range inc.parent {
		inc.parent[i] = int32(i)
		inc.size[i] = 1
	}
}

func (inc *Incremental) find(u int32) int32 {
	for inc.parent[u] != u {
		inc.parent[u] = inc.parent[inc.parent[u]] // path halving
		u = inc.parent[u]
	}
	return u
}

func (inc *Incremental) union(a, b int32) {
	ra, rb := inc.find(a), inc.find(b)
	if ra == rb {
		return
	}
	if inc.size[ra] < inc.size[rb] {
		ra, rb = rb, ra
	}
	sa, sb := int64(inc.size[ra]), int64(inc.size[rb])
	// Merging components of sizes sa and sb adds sa*sb connected pairs.
	inc.pairs += sa * sb
	inc.parent[rb] = ra
	inc.size[ra] += inc.size[rb]
}

// AddBroker inserts u into B, dominating u's incident edges. Adding an
// existing broker is a no-op.
func (inc *Incremental) AddBroker(u int) {
	if inc.inB[u] {
		return
	}
	inc.inB[u] = true
	for _, v := range inc.g.Neighbors(u) {
		inc.union(int32(u), v)
	}
}

// InB reports whether u is a broker.
func (inc *Incremental) InB(u int) bool { return inc.inB[u] }

// Connectivity returns the saturated E2E connectivity fraction.
func (inc *Incremental) Connectivity() float64 {
	total := graph.TotalPairs(inc.g.NumNodes())
	if total == 0 {
		return 0
	}
	return float64(inc.pairs) / float64(total)
}

// Gain returns the connectivity-pairs increase of adding u, without
// mutating the state. O(deg(u) α(n)).
func (inc *Incremental) Gain(u int) int64 {
	if inc.inB[u] {
		return 0
	}
	// Group u's neighbor components; merging components of sizes s1..sk
	// with u's component adds pairwise products, computed incrementally.
	rootU := inc.find(int32(u))
	merged := int64(inc.size[rootU])
	var gained int64
	inc.roots = append(inc.roots[:0], rootU)
	for _, v := range inc.g.Neighbors(u) {
		r := inc.find(v)
		if slices.Contains(inc.roots, r) {
			continue
		}
		inc.roots = append(inc.roots, r)
		s := int64(inc.size[r])
		gained += merged * s
		merged += s
	}
	return gained
}

// RemovalUpperBound returns an upper bound on the saturated connectivity of
// B∖{b}, in O(Σ deg(N(b))) and without mutating the state. Every neighbour
// v ∉ B of b whose only broker neighbour is b loses all its dominated edges
// when b leaves and becomes a singleton; with S the size of b's component
// and L the number of such leaves, the S−L nodes left can at best stay one
// component and no other component changes, so at most
// pairs − C(S,2) + C(S−L,2) pairs remain connected. The quotient is formed
// as SaturatedConnectivity forms its own, so "bound < target" implies the
// exact evaluation is below target too.
func (inc *Incremental) RemovalUpperBound(b int) float64 {
	total := graph.TotalPairs(inc.g.NumNodes())
	if total == 0 {
		return 0
	}
	if !inc.inB[b] {
		return float64(inc.pairs) / float64(total)
	}
	var leaves int64
	for _, v := range inc.g.Neighbors(b) {
		if inc.inB[v] {
			continue
		}
		leaf := true
		for _, w := range inc.g.Neighbors(int(v)) {
			if int(w) != b && inc.inB[w] {
				leaf = false
				break
			}
		}
		if leaf {
			leaves++
		}
	}
	s := int64(inc.size[inc.find(int32(b))])
	rest := s - leaves
	return float64(inc.pairs-s*(s-1)/2+rest*(rest-1)/2) / float64(total)
}
