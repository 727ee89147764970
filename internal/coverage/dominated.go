package coverage

import (
	"brokerset/internal/graph"
)

// Dominated is a view of the B-dominated subgraph G_B of a graph: the
// subgraph whose edges have at least one endpoint in B. Only nodes in
// B ∪ N(B) can have incident dominated edges. Membership is bit-packed and
// component sweeps run on the word-parallel BFS kernel, which is what keeps
// connectivity evaluation tractable at the paper's 52k-node scale.
type Dominated struct {
	g        *graph.Graph
	inB      graph.Bitset
	brokers  []int32
	kern     *graph.BitBFS
	eligible graph.Bitset // B ∪ N(B), lazily built
}

// NewDominated builds a dominated-subgraph view for broker set B.
func NewDominated(g *graph.Graph, brokers []int32) *Dominated {
	d := &Dominated{
		g:       g,
		inB:     BitMaskOf(g, brokers),
		brokers: append([]int32(nil), brokers...),
		kern:    graph.NewBitBFS(g),
	}
	return d
}

// allow is the dominated-edge predicate: (u,v) is usable iff u∈B or v∈B.
func (d *Dominated) allow(u, v int32) bool {
	return d.inB.Has(u) || d.inB.Has(v)
}

// eligibleSet returns B ∪ N(B): the nodes that can appear on a dominated
// path. Built once per view in O(Σ deg(B)).
func (d *Dominated) eligibleSet() graph.Bitset {
	if d.eligible != nil {
		return d.eligible
	}
	el := graph.NewBitset(d.g.NumNodes())
	for _, b := range d.brokers {
		el.Set(b)
		for _, v := range d.g.Neighbors(int(b)) {
			el.Set(v)
		}
	}
	d.eligible = el
	return el
}

// Components labels nodes by their component in G_B. Nodes with no incident
// dominated edge (and not in B) get label graph.Unreached. Returns the
// label slice and per-component sizes.
func (d *Dominated) Components() (comp []int32, sizes []int) {
	n := d.g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = graph.Unreached
	}
	el := d.eligibleSet()
	d.kern.Reset()
	visited := d.kern.Visited()
	var seed [1]int32
	el.ForEach(func(s int32) {
		if visited.Has(s) {
			return
		}
		id := int32(len(sizes))
		seed[0] = s
		size := d.kern.FloodFunc(seed[:], d.inB, func(v int32) { comp[v] = id })
		sizes = append(sizes, size)
	})
	return comp, sizes
}

// ComponentSizes returns only the per-component sizes of G_B, skipping the
// label array — the fast path for connectivity evaluation.
func (d *Dominated) ComponentSizes() []int {
	var sizes []int
	el := d.eligibleSet()
	d.kern.Reset()
	visited := d.kern.Visited()
	var seed [1]int32
	el.ForEach(func(s int32) {
		if visited.Has(s) {
			return
		}
		seed[0] = s
		sizes = append(sizes, d.kern.FloodDominated(seed[:], d.inB))
	})
	return sizes
}

// SaturatedConnectivity returns the fraction of all unordered node pairs of
// the full graph joined by some B-dominated path of any length — the
// paper's "saturated E2E connectivity". It runs in O(V+E).
func (d *Dominated) SaturatedConnectivity() float64 {
	sizes := d.ComponentSizes()
	total := graph.TotalPairs(d.g.NumNodes())
	if total == 0 {
		return 0
	}
	return float64(graph.PairsWithin(sizes)) / float64(total)
}

// SaturatedConnectivity is a convenience wrapper constructing the dominated
// view for brokers and evaluating its saturated connectivity.
func SaturatedConnectivity(g *graph.Graph, brokers []int32) float64 {
	return NewDominated(g, brokers).SaturatedConnectivity()
}

// Path returns one shortest B-dominated path from src to dst (node
// sequence, inclusive), or nil if none exists.
func (d *Dominated) Path(src, dst int) []int32 {
	if src == dst {
		return []int32{int32(src)}
	}
	n := d.g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = graph.Unreached
	}
	parent[src] = int32(src)
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range d.g.Neighbors(int(u)) {
			if parent[v] != graph.Unreached || !d.allow(u, v) {
				continue
			}
			parent[v] = u
			if int(v) == dst {
				return rebuild(parent, src, dst)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

func rebuild(parent []int32, src, dst int) []int32 {
	var rev []int32
	for u := int32(dst); ; u = parent[u] {
		rev = append(rev, u)
		if int(u) == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// HasPath reports whether a B-dominated path joins src and dst.
func (d *Dominated) HasPath(src, dst int) bool {
	comp, _ := d.Components()
	return comp[src] != graph.Unreached && comp[src] == comp[dst]
}

// VerifyDominated checks that every hop of path has an endpoint in B —
// i.e. that path is B-dominated — and that consecutive nodes are adjacent.
func VerifyDominated(g *graph.Graph, brokers []int32, path []int32) bool {
	if len(path) == 0 {
		return false
	}
	inB := BitMaskOf(g, brokers)
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if !g.HasEdge(int(u), int(v)) {
			return false
		}
		if !inB.Has(u) && !inB.Has(v) {
			return false
		}
	}
	return true
}
