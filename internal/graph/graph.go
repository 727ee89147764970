// Package graph provides a compact, immutable undirected-graph
// representation and the traversal primitives (BFS, Dijkstra, connected
// components) that the broker-selection algorithms are built on.
//
// Graphs are stored in compressed-sparse-row (CSR) form: node identifiers
// are dense ints in [0, NumNodes()) and the neighbour lists are sorted,
// which makes adjacency queries a binary search and lets traversal scratch
// buffers be reused across runs without allocation.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected graph in CSR form. The zero value is an
// empty graph. Build one with a Builder.
type Graph struct {
	// off has length n+1; the neighbours of node u are adj[off[u]:off[u+1]].
	off []int32
	// adj holds each undirected edge twice (once per endpoint), sorted
	// within each node's slice.
	adj []int32
	// m is the number of undirected edges.
	m int
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the number of neighbours of node u.
func (g *Graph) Degree(u int) int {
	return int(g.off[u+1] - g.off[u])
}

// Neighbors returns the sorted neighbour list of node u. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.off[u]:g.off[u+1]]
}

// ArcOffset returns the index of node u's first entry in the flattened
// adjacency array, so callers can maintain per-arc parallel arrays: the arc
// to Neighbors(u)[i] has index ArcOffset(u)+i, and NumArcs() is the total.
func (g *Graph) ArcOffset(u int) int { return int(g.off[u]) }

// NumArcs returns the total number of directed adjacency entries (2m).
func (g *Graph) NumArcs() int { return len(g.adj) }

// ArcOf returns the index of arc u → v in the flattened adjacency array, or
// -1 when u and v are not adjacent. It is the one row search every per-arc
// column (routing metrics, relationship labels, free-link flags) is addressed
// through; the reverse arc of an edge is ArcOf(v, u).
func (g *Graph) ArcOf(u, v int) int {
	i, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	if !ok {
		return -1
	}
	return int(g.off[u]) + i
}

// HasEdge reports whether nodes u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool { return g.ArcOf(u, v) >= 0 }

// Edges calls fn once per undirected edge with u < v. Iteration stops early
// if fn returns false.
func (g *Graph) Edges(fn func(u, v int) bool) {
	for u := 0; u < g.NumNodes(); u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// Links calls fn once per undirected edge u < v with both of its arc indexes:
// a is arc u → v and b is arc v → u, so a column aligned with the adjacency
// array is written pairwise with no row search. Edges are visited by
// ascending lower endpoint u, which is the order the lower endpoints appear
// in v's sorted row: paired[v] counts how many of them have been seen, so
// it is the position of u in v's row.
func (g *Graph) Links(fn func(a, b, u, v int)) {
	paired := make([]int32, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		off := int(g.off[u])
		for i, w := range g.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			fn(off+i, int(g.off[v]+paired[v]), u, v)
			paired[v]++
		}
	}
}

// MaxDegreeNode returns the node with the highest degree, breaking ties by
// the smaller id. It returns -1 for an empty graph.
func (g *Graph) MaxDegreeNode() int {
	best, bestDeg := -1, -1
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped.
type Builder struct {
	n      int
	us, vs []int32
	// tags holds each edge's two arc tags, us→vs then vs→us.
	tags  []uint8
	bad   bool
	badUV [2]int
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow makes room for m more edges, for a caller that knows roughly how
// many it will add: three slices doubling their way to the Table-2 tier's
// 400k edges are 10 ms of copying and clearing.
func (b *Builder) Grow(m int) {
	b.us, b.vs, b.tags = slices.Grow(b.us, m), slices.Grow(b.vs, m), slices.Grow(b.tags, 2*m)
}

// AddEdge records an undirected edge between u and v. Self-loops are
// ignored. Endpoints out of range are recorded and reported by Build.
func (b *Builder) AddEdge(u, v int) { b.AddTagged(u, v, 0, 0) }

// AddTagged is AddEdge for a caller that keeps a byte per arc (a
// relationship label, say): uv is the tag of arc u → v and vu that of
// v → u, and BuildTagged hands them back as a column aligned with the
// adjacency array. When an edge is added more than once its last tags stand.
func (b *Builder) AddTagged(u, v int, uv, vu uint8) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		if !b.bad {
			b.bad = true
			b.badUV = [2]int{u, v}
		}
		return
	}
	if u > v {
		u, v, uv, vu = v, u, vu, uv
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.tags = append(b.tags, uv, vu)
}

// Build assembles the CSR graph. It returns an error if any recorded edge
// had an endpoint outside [0, n).
func (b *Builder) Build() (*Graph, error) {
	g, _, err := b.BuildTagged()
	return g, err
}

// BuildTagged is Build that also returns the tag column: entry
// ArcOffset(u)+i is the tag AddTagged was given for arc u → Neighbors(u)[i]
// (0 for an edge AddEdge recorded).
//
// Rows come out sorted without a sort, and a tag reaches its arc without a
// search. The edges are first dealt into rows in the order they were added;
// then the rows are read by ascending source u and u is appended to the row
// of each of its neighbours. That second pass writes the transpose, which for
// an undirected graph is the graph again — and since the sources arrive in
// ascending order every row it writes is ascending, a repeated edge showing
// up as a repeat of the row's last entry. The tags ride both passes beside
// their arcs. (Sorting each row and then finding each labelled edge's arc by
// binary search took 60 of the Table-2 generator's 160 ms; this takes 19.)
func (b *Builder) BuildTagged() (*Graph, []uint8, error) {
	if b.bad {
		return nil, nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", b.badUV[0], b.badUV[1], b.n)
	}
	off := make([]int32, b.n+1)
	for i := range b.us {
		off[b.us[i]+1]++
		off[b.vs[i]+1]++
	}
	for u := 0; u < b.n; u++ {
		off[u+1] += off[u]
	}
	// dealt[p] is a neighbour of the row p falls in, dealtTag[p] the tag of
	// the arc from that neighbour back to the row's node — the arc the second
	// pass writes when it reads p.
	dealt := make([]int32, off[b.n])
	dealtTag := make([]uint8, off[b.n])
	pos := make([]int32, b.n)
	copy(pos, off)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		dealt[pos[u]], dealtTag[pos[u]] = v, b.tags[2*i+1]
		pos[u]++
		dealt[pos[v]], dealtTag[pos[v]] = u, b.tags[2*i]
		pos[v]++
	}
	adj := make([]int32, len(dealt))
	tags := make([]uint8, len(dealt))
	copy(pos, off)
	dups := 0
	for u := int32(0); int(u) < b.n; u++ {
		for p := off[u]; p < off[u+1]; p++ {
			v := dealt[p]
			if q := pos[v]; q > off[v] && adj[q-1] == u {
				tags[q-1] = dealtTag[p]
				dups++
				continue
			}
			adj[pos[v]], tags[pos[v]] = u, dealtTag[p]
			pos[v]++
		}
	}
	if dups > 0 {
		// Rows a repeated edge left short of their allotment close up.
		n := 0
		for u := 0; u < b.n; u++ {
			from, to := off[u], pos[u]
			off[u] = int32(n)
			n += copy(adj[n:], adj[from:to])
			copy(tags[off[u]:], tags[from:to])
		}
		off[b.n] = int32(n)
		adj, tags = adj[:n:n], tags[:n:n]
	}
	return &Graph{off: off, adj: adj, m: len(adj) / 2}, tags, nil
}

// MustBuild is Build for callers that know their edges are in range
// (e.g. generators); it panics on a malformed edge.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// WithoutArcs returns a copy of g with every arc (u,v) for which drop
// reports true removed. Only the rows listed in dirtyRows (any order,
// duplicates allowed) are filtered; every other row is copied verbatim, so
// the cost is one memmove of the adjacency array plus the dirty rows'
// degrees, and rows stay sorted. The caller guarantees that drop is
// symmetric and that both endpoints of every dropped edge are listed. With
// no dirty rows g itself is returned.
func (g *Graph) WithoutArcs(dirtyRows []int32, drop func(u, v int32) bool) *Graph {
	if len(dirtyRows) == 0 {
		return g
	}
	rows := slices.Clone(dirtyRows)
	slices.Sort(rows)
	rows = slices.Compact(rows)

	n := g.NumNodes()
	off := make([]int32, n+1)
	adj := make([]int32, 0, len(g.adj))
	next := 0 // first row whose offset is not yet written
	for _, u := range rows {
		// Clean rows next..u-1 move as one block, shifted by what the
		// dirty rows before them lost.
		shift := g.off[next] - int32(len(adj))
		for r := next; r <= int(u); r++ {
			off[r] = g.off[r] - shift
		}
		adj = append(adj, g.adj[g.off[next]:g.off[u]]...)
		for _, v := range g.Neighbors(int(u)) {
			if !drop(u, v) {
				adj = append(adj, v)
			}
		}
		next = int(u) + 1
	}
	shift := g.off[next] - int32(len(adj))
	for r := next; r <= n; r++ {
		off[r] = g.off[r] - shift
	}
	adj = append(adj, g.adj[g.off[next]:]...)
	if len(adj)%2 != 0 {
		panic("graph: WithoutArcs dropped an arc without its reverse")
	}
	return &Graph{off: off, adj: adj, m: len(adj) / 2}
}

// InducedSubgraph returns the subgraph induced by keep (nodes with
// keep[u] == true), a mapping orig such that node i of the subgraph is node
// orig[i] of g, and a mapping arcOrig such that arc a of the subgraph is arc
// arcOrig[a] of g — a column aligned with g's adjacency array becomes one
// aligned with the subgraph's by the gather col[arcOrig[a]]. New ids ascend
// with old ids, so a kept node's row is the parent's row with the dropped
// neighbours filtered out: still sorted, still duplicate-free.
func (g *Graph) InducedSubgraph(keep []bool) (sub *Graph, orig, arcOrig []int32) {
	if len(keep) != g.NumNodes() {
		panic(fmt.Sprintf("graph: keep mask length %d != %d nodes", len(keep), g.NumNodes()))
	}
	remap := make([]int32, g.NumNodes())
	for u := range remap {
		remap[u] = -1
		if keep[u] {
			remap[u] = int32(len(orig))
			orig = append(orig, int32(u))
		}
	}
	off := make([]int32, len(orig)+1)
	for i, o := range orig {
		kept := int32(0)
		for _, v := range g.Neighbors(int(o)) {
			if keep[v] {
				kept++
			}
		}
		off[i+1] = off[i] + kept
	}
	adj := make([]int32, 0, off[len(orig)])
	arcOrig = make([]int32, 0, off[len(orig)])
	for _, o := range orig {
		po := g.off[o]
		for j, v := range g.Neighbors(int(o)) {
			if keep[v] {
				adj = append(adj, remap[v])
				arcOrig = append(arcOrig, po+int32(j))
			}
		}
	}
	return &Graph{off: off, adj: adj, m: len(adj) / 2}, orig, arcOrig
}
