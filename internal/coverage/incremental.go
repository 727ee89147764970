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
	// probes counts the roots Gain, AppendRoots and RootsGain have found.
	probes int64
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

// link merges the components of roots ra ≠ rb, the larger absorbing the
// smaller (ra on a tie), and returns the surviving root.
func (inc *Incremental) link(ra, rb int32) int32 {
	if inc.size[ra] < inc.size[rb] {
		ra, rb = rb, ra
	}
	sa, sb := int64(inc.size[ra]), int64(inc.size[rb])
	// Merging components of sizes sa and sb adds sa*sb connected pairs.
	inc.pairs += sa * sb
	inc.parent[rb] = ra
	inc.size[ra] += inc.size[rb]
	return ra
}

// AddBroker inserts u into B, dominating u's incident edges. Adding an
// existing broker is a no-op. u's root is carried across its row rather
// than found again per neighbour; the roots and sizes are the ones a union
// per edge would leave.
func (inc *Incremental) AddBroker(u int) {
	if inc.inB[u] {
		return
	}
	inc.inB[u] = true
	ru := inc.find(int32(u))
	for _, v := range inc.g.Neighbors(u) {
		if rv := inc.find(v); rv != ru {
			ru = inc.link(ru, rv)
		}
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
	inc.roots = inc.AppendRoots(inc.roots[:0], u)
	return inc.mergePairs(inc.roots)
}

// AppendRoots appends to dst the distinct component roots of u's closed
// neighbourhood, u's own first: the components adding u would merge. A node
// can gain only if it touches two components, so a list shorter than two
// means a gain of 0 now and, since components only merge, for as long as B
// only grows.
func (inc *Incremental) AppendRoots(dst []int32, u int) []int32 {
	start := len(dst)
	inc.probes += 1 + int64(inc.g.Degree(u))
	dst = append(dst, inc.find(int32(u)))
	for _, v := range inc.g.Neighbors(u) {
		if r := inc.find(v); !slices.Contains(dst[start:], r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// RootsGain brings a list from AppendRoots up to date after brokers were
// added since it was taken: each root is found again (a root of then names
// its component now), and the list is compacted in place to the distinct
// current roots. It returns that prefix and the pairs merging those
// components would add — Gain of the node the list was taken for, as long
// as that node is still outside B — in O(len(roots)) finds rather than
// O(deg).
func (inc *Incremental) RootsGain(roots []int32) ([]int32, int64) {
	k := 0
	inc.probes += int64(len(roots))
	for _, r := range roots {
		if r = inc.find(r); !slices.Contains(roots[:k], r) {
			roots[k] = r
			k++
		}
	}
	return roots[:k], inc.mergePairs(roots[:k])
}

// Probes returns how many component roots Gain, AppendRoots and RootsGain
// have found since the state was made: the union-find reads that scoring
// candidates cost. Reset does not clear it.
func (inc *Incremental) Probes() int64 { return inc.probes }

// mergePairs returns the pairs merging the components of distinct roots
// adds: Σ s_i·s_j over i < j, accumulated as each joins the merged whole.
func (inc *Incremental) mergePairs(roots []int32) int64 {
	if len(roots) == 0 {
		return 0
	}
	merged := int64(inc.size[roots[0]])
	var gained int64
	for _, r := range roots[1:] {
		s := int64(inc.size[r])
		gained += merged * s
		merged += s
	}
	return gained
}

// AppendOutsideLargest appends to dst, ascending, every node outside one
// largest component (the one with the lowest root id among equals). Any
// node that can gain touches two components, one of which is not that
// one, so it is in the closed neighbourhood of a node listed here. O(n α).
func (inc *Incremental) AppendOutsideLargest(dst []int32) []int32 {
	largest := int32(-1)
	for u, p := range inc.parent {
		if p == int32(u) && (largest < 0 || inc.size[u] > inc.size[largest]) {
			largest = int32(u)
		}
	}
	for u := range inc.parent {
		if inc.find(int32(u)) != largest {
			dst = append(dst, int32(u))
		}
	}
	return dst
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
