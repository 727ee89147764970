package topology

import (
	"fmt"
	"sort"
)

// RegionPartition divides a topology into N contiguous regions anchored at
// high-degree IXPs — the decomposition the federation plane runs on. Each
// node belongs to exactly one home region (its nearest anchor by hop
// distance, ties to the lower region id), and IXPs whose neighborhood spans
// more than one region are border IXPs: the stitch points where per-region
// B-dominated path segments compose into end-to-end routes.
type RegionPartition struct {
	top *Topology
	// N is the region count.
	N int
	// Region maps each node to its home region id.
	Region []int32
	// Anchors holds each region's anchor IXP (global node id), indexed by
	// region id. Anchors are the N highest-degree IXPs.
	Anchors []int32
	// members[r] lists region r's home nodes ascending.
	members [][]int32
	// borders lists the border IXPs ascending (global ids).
	borders []int32
	// touches[b] is the ascending set of region ids border IXP b reaches
	// (its home region plus every region a neighbor lives in).
	touches map[int32][]int32
	// between[r*N+q] lists the border IXPs reaching both r and q, ascending.
	between [][]int32
}

// PartitionRegions splits the topology into n regions via multi-source BFS
// from the n highest-degree IXPs (ties to the lower node id). Every node
// joins the region of its nearest anchor; nodes unreachable from any anchor
// are spread deterministically by id. It fails when the topology has fewer
// than n IXPs.
func PartitionRegions(t *Topology, n int) (*RegionPartition, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: region count %d < 1", n)
	}
	ixps := make([]int32, 0, t.NumIXPs())
	for u := 0; u < t.NumNodes(); u++ {
		if t.IsIXP(u) {
			ixps = append(ixps, int32(u))
		}
	}
	if len(ixps) < n {
		return nil, fmt.Errorf("topology: %d region(s) need %d anchor IXPs, topology has %d", n, n, len(ixps))
	}
	sort.Slice(ixps, func(i, j int) bool {
		di, dj := t.Graph.Degree(int(ixps[i])), t.Graph.Degree(int(ixps[j]))
		if di != dj {
			return di > dj
		}
		return ixps[i] < ixps[j]
	})
	p := &RegionPartition{
		top:     t,
		N:       n,
		Region:  make([]int32, t.NumNodes()),
		Anchors: append([]int32(nil), ixps[:n]...),
		touches: make(map[int32][]int32),
	}
	for u := range p.Region {
		p.Region[u] = -1
	}
	// Multi-source BFS: one FIFO queue seeded with the anchors in region-id
	// order processes nodes in nondecreasing distance, so a node equidistant
	// from two anchors is claimed by the lower region id.
	queue := make([]int32, 0, t.NumNodes())
	for r, a := range p.Anchors {
		p.Region[a] = int32(r)
		queue = append(queue, a)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Graph.Neighbors(int(u)) {
			if p.Region[v] < 0 {
				p.Region[v] = p.Region[u]
				queue = append(queue, v)
			}
		}
	}
	for u := range p.Region {
		if p.Region[u] < 0 {
			p.Region[u] = int32(u % n) // off-component node: deterministic spread
		}
	}
	p.members = make([][]int32, n)
	for u, r := range p.Region {
		p.members[r] = append(p.members[r], int32(u))
	}
	// Border IXPs: an IXP touching any region other than its home.
	for _, b := range ixps {
		set := map[int32]bool{p.Region[b]: true}
		for _, v := range t.Graph.Neighbors(int(b)) {
			set[p.Region[v]] = true
		}
		if len(set) < 2 {
			continue
		}
		regions := make([]int32, 0, len(set))
		for r := range set {
			regions = append(regions, r)
		}
		sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
		p.borders = append(p.borders, b)
		p.touches[b] = regions
	}
	sort.Slice(p.borders, func(i, j int) bool { return p.borders[i] < p.borders[j] })
	p.between = make([][]int32, n*n)
	for _, b := range p.borders {
		for _, r := range p.touches[b] {
			for _, q := range p.touches[b] {
				p.between[int(r)*n+int(q)] = append(p.between[int(r)*n+int(q)], b)
			}
		}
	}
	return p, nil
}

// RegionOf returns node u's home region.
func (p *RegionPartition) RegionOf(u int32) int { return int(p.Region[u]) }

// Members returns region r's home nodes ascending. Callers must not mutate.
func (p *RegionPartition) Members(r int) []int32 { return p.members[r] }

// BorderIXPs returns every border IXP (global ids, ascending). Callers must
// not mutate.
func (p *RegionPartition) BorderIXPs() []int32 { return p.borders }

// Touches returns the ascending region ids border IXP b reaches (nil when b
// is not a border IXP).
func (p *RegionPartition) Touches(b int32) []int32 { return p.touches[b] }

// BorderBetween returns the border IXPs reaching both regions r and q
// (ascending global ids) — the candidate stitch points for an r→q crossing.
// Callers must not mutate.
func (p *RegionPartition) BorderBetween(r, q int) []int32 { return p.between[r*p.N+q] }

// Adjacent reports whether regions r and q share at least one border IXP.
func (p *RegionPartition) Adjacent(r, q int) bool { return len(p.BorderBetween(r, q)) > 0 }

// Subtopology induces region r's working topology: its home nodes plus
// every border IXP that touches r, with labels and relationships carried
// over. Border IXPs therefore exist in every region they touch — that
// shared node is what lets two regions' path segments meet at the same
// stitch point. orig maps the subtopology's local ids back to global ids and
// arcOrig its arc indexes back to the global graph's, so any column aligned
// with the global adjacency, or with its links, is carried over by a gather
// (routing.NewSubMetrics).
func (p *RegionPartition) Subtopology(r int) (sub *Topology, orig, arcOrig []int32) {
	t := p.top
	keep := make([]bool, t.NumNodes())
	for _, u := range p.members[r] {
		keep[u] = true
	}
	for _, b := range p.borders {
		for _, tr := range p.touches[b] {
			if int(tr) == r {
				keep[b] = true
			}
		}
	}
	return t.induced(keep)
}
