package graph

import "math/bits"

// BitBFS is a bit-packed breadth-first traversal kernel: the visited set and
// both frontiers are Bitsets, so frontier admission (next &^ visited,
// visited |= next) runs a word — 64 nodes — at a time, and large frontiers
// switch to a bottom-up sweep over the unvisited words (direction-optimizing
// BFS). All scratch is allocated once at construction; runs allocate
// nothing, which is what lets the selection algorithms call the kernel per
// candidate without touching the garbage collector.
//
// A BitBFS is not safe for concurrent use; use a BFSPool to share scratch
// across a worker pool.
type BitBFS struct {
	g        *Graph
	visited  Bitset
	frontier Bitset
	next     Bitset
	list     []int32 // sparse frontier for top-down levels
}

// bottomUpDivisor: when the frontier holds more than n/bottomUpDivisor
// nodes, the level switches from top-down neighbour expansion to a
// bottom-up sweep ("is any of my neighbours in the frontier?"), which
// short-circuits per node and reads the frontier word-packed.
const bottomUpDivisor = 16

// NewBitBFS returns a kernel with scratch sized for g.
func NewBitBFS(g *Graph) *BitBFS {
	n := g.NumNodes()
	return &BitBFS{
		g:        g,
		visited:  NewBitset(n),
		frontier: NewBitset(n),
		next:     NewBitset(n),
		list:     make([]int32, 0, 256),
	}
}

// Reset clears the visited set so the next run starts fresh. O(n/64).
func (b *BitBFS) Reset() {
	b.visited.Zero()
	b.frontier.Zero()
	b.list = b.list[:0]
}

// Visited returns the visited bitset of the run(s) so far. It aliases the
// kernel's scratch: valid until the next Reset, must not be modified.
func (b *BitBFS) Visited() Bitset { return b.visited }

// Flood runs a multi-source BFS from srcs over every edge and returns the
// number of reached nodes (sources included). Sources already visited by a
// previous un-Reset run are skipped, so repeated Flood calls enumerate
// components.
func (b *BitBFS) Flood(srcs []int32) int {
	return b.flood(srcs, nil, nil)
}

// FloodDominated runs a multi-source BFS restricted to B-dominated edges —
// an edge (u,v) is traversable iff u ∈ B or v ∈ B — and returns the number
// of reached nodes. This is the coverage machinery's G_B reachability
// kernel.
func (b *BitBFS) FloodDominated(srcs []int32, inB Bitset) int {
	return b.flood(srcs, inB, nil)
}

// FloodFunc is Flood with a per-node visitor: onNode is called exactly once
// for every newly reached node (sources included), in level order. Pass a
// non-nil inB to restrict traversal to B-dominated edges.
func (b *BitBFS) FloodFunc(srcs []int32, inB Bitset, onNode func(v int32)) int {
	return b.flood(srcs, inB, onNode)
}

func (b *BitBFS) flood(srcs []int32, inB Bitset, onNode func(v int32)) int {
	b.frontier.Zero()
	b.list = b.list[:0]
	reached := 0
	for _, s := range srcs {
		if b.visited.TestAndSet(s) {
			b.frontier.Set(s)
			b.list = append(b.list, s)
			if onNode != nil {
				onNode(s)
			}
			reached++
		}
	}
	n := b.g.NumNodes()
	frontierSize := len(b.list)
	for frontierSize > 0 {
		b.next.Zero()
		if frontierSize > n/bottomUpDivisor {
			b.bottomUp(inB)
		} else {
			b.topDown(inB)
		}
		// Word-parallel admission: next &^ visited becomes the new
		// frontier and is merged into visited in the same pass.
		claimed := b.visited.ClaimNew(b.next, b.frontier)
		reached += claimed
		frontierSize = claimed
		b.list = b.frontier.AppendBits(b.list[:0])
		if onNode != nil {
			for _, v := range b.list {
				onNode(v)
			}
		}
	}
	return reached
}

// topDown expands the sparse frontier list into candidate bits.
func (b *BitBFS) topDown(inB Bitset) {
	g := b.g
	if inB == nil {
		for _, u := range b.list {
			for _, v := range g.Neighbors(int(u)) {
				b.next.Set(v)
			}
		}
		return
	}
	for _, u := range b.list {
		if inB.Has(u) {
			// u is a broker: every incident edge is dominated.
			for _, v := range g.Neighbors(int(u)) {
				b.next.Set(v)
			}
		} else {
			// u is covered only: usable edges lead into B.
			for _, v := range g.Neighbors(int(u)) {
				if inB.Has(v) {
					b.next.Set(v)
				}
			}
		}
	}
}

// bottomUp scans unvisited nodes word-by-word and admits every node with a
// frontier neighbour, short-circuiting at the first hit.
func (b *BitBFS) bottomUp(inB Bitset) {
	g := b.g
	n := g.NumNodes()
	for wi, w := range b.visited {
		unvisited := ^w
		if wi == len(b.visited)-1 && n&63 != 0 {
			unvisited &= (1 << (uint(n) & 63)) - 1
		}
		base := int32(wi << 6)
		for unvisited != 0 {
			v := base + int32(bits.TrailingZeros64(unvisited))
			unvisited &= unvisited - 1
			if inB == nil || inB.Has(v) {
				for _, u := range g.Neighbors(int(v)) {
					if b.frontier.Has(u) {
						b.next.Set(v)
						break
					}
				}
			} else {
				// v outside B: only edges whose far end is a broker
				// are dominated.
				for _, u := range g.Neighbors(int(v)) {
					if inB.Has(u) && b.frontier.Has(u) {
						b.next.Set(v)
						break
					}
				}
			}
		}
	}
}
