package graph

// Unreached marks a node not reached by a traversal.
const Unreached int32 = -1

// BFS holds reusable scratch state for breadth-first searches over a fixed
// graph. It is not safe for concurrent use; create one per goroutine.
type BFS struct {
	g     *Graph
	dist  []int32
	queue []int32
	// touched records which entries of dist were written so Reset is O(reached).
	touched []int32
}

// NewBFS returns BFS scratch state for g.
func NewBFS(g *Graph) *BFS {
	n := g.NumNodes()
	d := make([]int32, n)
	for i := range d {
		d[i] = Unreached
	}
	return &BFS{
		g:     g,
		dist:  d,
		queue: make([]int32, 0, n),
	}
}

// Dist returns the distance slice of the last run; Unreached (-1) marks
// unreached nodes. The slice is invalidated by the next run.
func (b *BFS) Dist() []int32 { return b.dist }

// Reached returns the nodes reached by the last run (sources included), in
// discovery order. The slice is invalidated by the next run and must not be
// modified.
func (b *BFS) Reached() []int32 { return b.touched }

func (b *BFS) reset() {
	for _, u := range b.touched {
		b.dist[u] = Unreached
	}
	b.touched = b.touched[:0]
	b.queue = b.queue[:0]
}

// Run performs a full BFS from src and returns the number of reached nodes
// (including src).
func (b *BFS) Run(src int) int {
	return b.RunBounded(src, int(^uint32(0)>>1))
}

// RunBounded performs a BFS from src limited to maxDepth hops and returns
// the number of reached nodes (including src).
func (b *BFS) RunBounded(src, maxDepth int) int {
	return b.RunBoundedFiltered(src, maxDepth, nil)
}

// RunBoundedFiltered performs a depth-bounded BFS from src that only
// traverses an edge (u,v) when allow(u, v) is true. A nil allow admits all
// edges. It returns the number of reached nodes (including src).
func (b *BFS) RunBoundedFiltered(src, maxDepth int, allow func(u, v int32) bool) int {
	b.reset()
	b.dist[src] = 0
	b.touched = append(b.touched, int32(src))
	b.queue = append(b.queue, int32(src))
	reached := 1
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		du := b.dist[u]
		if int(du) >= maxDepth {
			continue
		}
		for _, v := range b.g.Neighbors(int(u)) {
			if b.dist[v] != Unreached {
				continue
			}
			if allow != nil && !allow(u, v) {
				continue
			}
			b.dist[v] = du + 1
			b.touched = append(b.touched, v)
			b.queue = append(b.queue, v)
			reached++
		}
	}
	return reached
}

// BFSTree performs a full BFS from src and returns the distance and parent
// arrays of the shortest-path tree. Unreachable nodes have dist Unreached
// and parent Unreached; the source is its own parent. Use PathTo to extract
// individual paths.
func (g *Graph) BFSTree(src int) (dist, parent []int32) {
	n := g.NumNodes()
	dist = make([]int32, n)
	parent = make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
		parent[i] = Unreached
	}
	dist[src] = 0
	parent[src] = int32(src)
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] != Unreached {
				continue
			}
			dist[v] = dist[u] + 1
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return dist, parent
}

// PathTo reconstructs the path from a BFSTree source to dst using the parent
// slice, or nil if dst was unreachable.
func PathTo(parent []int32, dst int) []int32 {
	if parent[dst] == Unreached {
		return nil
	}
	var rev []int32
	for u := int32(dst); ; u = parent[u] {
		rev = append(rev, u)
		if parent[u] == u {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
