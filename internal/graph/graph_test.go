package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// pathGraph returns 0-1-2-...-n-1.
func pathGraph(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// randomGraph returns an Erdős–Rényi-ish graph for property tests.
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop, dropped
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if got, want := g.NumEdges(), 2; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if got, want := g.Degree(0), 1; got != want {
		t.Errorf("Degree(0) = %d, want %d", got, want)
	}
	if g.Degree(2) != 1 || g.Degree(3) != 1 {
		t.Errorf("degrees of 2,3 = %d,%d, want 1,1", g.Degree(2), g.Degree(3))
	}
}

// buildBySorting is the construction Build used before it transposed: deal
// the edges into rows, sort each row, drop repeats. It stays as the reference
// Build is compared against.
func buildBySorting(b *Builder) *Graph {
	deg := make([]int32, b.n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	off := make([]int32, b.n+1)
	for u := 0; u < b.n; u++ {
		off[u+1] = off[u] + deg[u]
	}
	adj := make([]int32, off[b.n])
	pos := make([]int32, b.n)
	copy(pos, off[:b.n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	out := adj[:0]
	newOff := make([]int32, b.n+1)
	for u := 0; u < b.n; u++ {
		ns := adj[off[u]:off[u+1]]
		slices.Sort(ns)
		start := len(out)
		var prev int32 = -1
		for _, v := range ns {
			if v != prev {
				out = append(out, v)
				prev = v
			}
		}
		newOff[u+1] = newOff[u] + int32(len(out)-start)
	}
	return &Graph{off: newOff, adj: out[:len(out):len(out)], m: len(out) / 2}
}

// TestBuildMatchesSortedConstruction: on shuffled input with repeated edges,
// in either orientation, and self-loops — and on input with none of those —
// Build's transpose gives the rows the sort gave, offset for offset, and
// every arc carries the tag its edge was last added with.
func TestBuildMatchesSortedConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		var edges [][2]int
		for i := rng.Intn(4 * n); i > 0; i-- {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		if trial%2 == 0 { // every edge again, some twice, flipped
			for _, e := range edges[:len(edges):len(edges)] {
				for r := rng.Intn(3); r > 0; r-- {
					edges = append(edges, [2]int{e[1], e[0]})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		b := NewBuilder(n)
		lastTag := make(map[[2]int]uint8) // by arc (from, to)
		for _, e := range edges {
			uv, vu := uint8(rng.Intn(256)), uint8(rng.Intn(256))
			b.AddTagged(e[0], e[1], uv, vu)
			lastTag[[2]int{e[0], e[1]}], lastTag[[2]int{e[1], e[0]}] = uv, vu
		}
		got, tags, err := b.BuildTagged()
		if err != nil {
			t.Fatal(err)
		}
		want := buildBySorting(b)
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || got.m != want.m {
			t.Fatalf("trial %d (%d nodes, edges %v):\n got off %v adj %v m %d\nwant off %v adj %v m %d",
				trial, n, edges, got.off, got.adj, got.m, want.off, want.adj, want.m)
		}
		if len(tags) != got.NumArcs() {
			t.Fatalf("trial %d: %d tags for %d arcs", trial, len(tags), got.NumArcs())
		}
		for u := 0; u < n; u++ {
			for i, v := range got.Neighbors(u) {
				if tag, want := tags[got.ArcOffset(u)+i], lastTag[[2]int{u, int(v)}]; tag != want {
					t.Fatalf("trial %d (edges %v): arc %d->%d tagged %d, last added with %d", trial, edges, u, v, tag, want)
				}
			}
		}
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() accepted out-of-range edge, want error")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.MaxDegreeNode() != -1 {
		t.Errorf("MaxDegreeNode on empty graph = %d, want -1", g.MaxDegreeNode())
	}
	var zero Graph
	if zero.NumNodes() != 0 {
		t.Errorf("zero-value graph NumNodes = %d, want 0", zero.NumNodes())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := randomGraph(50, 200, 7)
	for u := 0; u < g.NumNodes(); u++ {
		ns := g.Neighbors(u)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("Neighbors(%d) not sorted: %v", u, ns)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := pathGraph(t, 5)
	tests := []struct {
		u, v int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false}, {3, 4, true}, {0, 4, false},
	}
	for _, tc := range tests {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestEdgesVisitsEachOnce(t *testing.T) {
	g := randomGraph(30, 100, 3)
	seen := make(map[[2]int]bool)
	g.Edges(func(u, v int) bool {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		key := [2]int{u, v}
		if seen[key] {
			t.Fatalf("edge (%d,%d) visited twice", u, v)
		}
		seen[key] = true
		return true
	})
	if len(seen) != g.NumEdges() {
		t.Fatalf("visited %d edges, want %d", len(seen), g.NumEdges())
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := pathGraph(t, 10)
	count := 0
	g.Edges(func(u, v int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d edges, want 3", count)
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := pathGraph(t, 6)
	b := NewBFS(g)
	reached := b.Run(0)
	if reached != 6 {
		t.Fatalf("Run(0) reached %d, want 6", reached)
	}
	for u := 0; u < 6; u++ {
		if got := b.Dist()[u]; got != int32(u) {
			t.Errorf("dist[%d] = %d, want %d", u, got, u)
		}
	}
}

func TestBFSBounded(t *testing.T) {
	g := pathGraph(t, 10)
	b := NewBFS(g)
	if got := b.RunBounded(0, 3); got != 4 {
		t.Fatalf("RunBounded(0,3) reached %d, want 4", got)
	}
	if b.Dist()[4] != Unreached {
		t.Errorf("node 4 reached at depth bound 3")
	}
}

func TestBFSReuseResets(t *testing.T) {
	g := pathGraph(t, 5)
	b := NewBFS(g)
	b.Run(0)
	b.Run(4)
	for u := 0; u < 5; u++ {
		if got, want := b.Dist()[u], int32(4-u); got != want {
			t.Errorf("after reuse dist[%d] = %d, want %d", u, got, want)
		}
	}
}

func TestBFSFiltered(t *testing.T) {
	// Star 0-{1,2,3}; forbid edges touching node 2.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.MustBuild()
	bfs := NewBFS(g)
	got := bfs.RunBoundedFiltered(0, 10, func(u, v int32) bool { return u != 2 && v != 2 })
	if got != 3 {
		t.Fatalf("filtered BFS reached %d, want 3", got)
	}
	if bfs.Dist()[2] != Unreached {
		t.Errorf("node 2 reached despite filter")
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := pathGraph(t, 9)
	b := NewBFS(g)
	reached := b.RunMultiSource([]int32{0, 8})
	if reached != 9 {
		t.Fatalf("multi-source reached %d, want 9", reached)
	}
	if got := b.Dist()[4]; got != 4 {
		t.Errorf("dist[4] = %d, want 4", got)
	}
	if got := b.Dist()[7]; got != 1 {
		t.Errorf("dist[7] = %d, want 1", got)
	}
}

func TestMultiSourceDuplicates(t *testing.T) {
	g := pathGraph(t, 3)
	b := NewBFS(g)
	if got := b.RunMultiSource([]int32{0, 0, 0}); got != 3 {
		t.Fatalf("reached %d, want 3", got)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.MustBuild()
	comp, sizes := g.Components()
	if len(sizes) != 4 {
		t.Fatalf("got %d components, want 4 (sizes %v)", len(sizes), sizes)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("nodes 0,1,2 not in one component: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Errorf("nodes 3,4 not in one component: %v", comp)
	}
	if comp[5] == comp[6] {
		t.Errorf("isolated nodes 5,6 share a component")
	}
	member, size := g.GiantComponent()
	if size != 3 {
		t.Fatalf("giant component size %d, want 3", size)
	}
	for u := 0; u < 3; u++ {
		if !member[u] {
			t.Errorf("node %d missing from giant component", u)
		}
	}
}

func TestPairsWithin(t *testing.T) {
	if got := PairsWithin([]int{3, 2, 1}); got != 4 {
		t.Errorf("PairsWithin = %d, want 4", got)
	}
	if got := TotalPairs(5); got != 10 {
		t.Errorf("TotalPairs(5) = %d, want 10", got)
	}
}

func TestPathToUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	_, parent := g.BFSTree(0)
	if p := PathTo(parent, 2); p != nil {
		t.Errorf("PathTo unreachable = %v, want nil", p)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(t, 5) // 0-1-2-3-4
	keep := []bool{true, true, false, true, true}
	sub, orig, _ := g.InducedSubgraph(keep)
	if sub.NumNodes() != 4 {
		t.Fatalf("subgraph nodes = %d, want 4", sub.NumNodes())
	}
	if sub.NumEdges() != 2 { // 0-1 and 3-4 survive
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	want := []int32{0, 1, 3, 4}
	for i, o := range orig {
		if o != want[i] {
			t.Fatalf("orig = %v, want %v", orig, want)
		}
	}
}

// TestInducedArcMap: for random keep-masks the filtered-row build equals the
// Builder-built induced graph, and every sub arc names the parent arc it was
// read off.
func TestInducedArcMap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		g := randomGraph(n, rng.Intn(2*n+1), int64(trial))
		keep := make([]bool, n)
		share := rng.Float64()
		for u := range keep {
			keep[u] = rng.Float64() < share
		}
		sub, orig, arcOrig := g.InducedSubgraph(keep)

		remap := make(map[int]int, len(orig))
		for i, o := range orig {
			if !keep[o] || (i > 0 && orig[i-1] >= o) {
				t.Fatalf("trial %d: orig %v is not the ascending kept set", trial, orig)
			}
			remap[int(o)] = i
		}
		b := NewBuilder(len(orig))
		g.Edges(func(u, v int) bool {
			if keep[u] && keep[v] {
				b.AddEdge(remap[u], remap[v])
			}
			return true
		})
		want := b.MustBuild()
		if !slices.Equal(sub.off, want.off) || !slices.Equal(sub.adj, want.adj) || sub.m != want.m {
			t.Fatalf("trial %d: induced graph differs from the Builder-built one", trial)
		}
		if len(arcOrig) != sub.NumArcs() {
			t.Fatalf("trial %d: %d arc origins for %d arcs", trial, len(arcOrig), sub.NumArcs())
		}
		for u := 0; u < sub.NumNodes(); u++ {
			for i, v := range sub.Neighbors(u) {
				a := sub.ArcOffset(u) + i
				if pa := int(arcOrig[a]); pa != g.ArcOf(int(orig[u]), int(orig[v])) || g.adj[pa] != orig[v] {
					t.Fatalf("trial %d: sub arc %d (%d→%d) maps to parent arc %d", trial, a, u, v, pa)
				}
			}
		}
	}
}

// TestArcOfAndLinks checks the row search against a linear scan and the link
// iterator against Edges: every edge once, with both of its arc indexes.
func TestArcOfAndLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(50)
		g := randomGraph(n, rng.Intn(3*n+1), int64(trial))
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := -1
				for i, w := range g.Neighbors(u) {
					if int(w) == v {
						want = g.ArcOffset(u) + i
					}
				}
				if got := g.ArcOf(u, v); got != want {
					t.Fatalf("trial %d: ArcOf(%d,%d) = %d, scan says %d", trial, u, v, got, want)
				}
				if g.HasEdge(u, v) != (want >= 0) {
					t.Fatalf("trial %d: HasEdge(%d,%d) disagrees with the scan", trial, u, v)
				}
			}
		}
		var want [][2]int
		g.Edges(func(u, v int) bool {
			want = append(want, [2]int{u, v})
			return true
		})
		var got [][2]int
		g.Links(func(a, b, u, v int) {
			if u >= v || int(g.adj[a]) != v || int(g.adj[b]) != u || a != g.ArcOf(u, v) || b != g.ArcOf(v, u) {
				t.Fatalf("trial %d: Links handed (%d,%d) for edge (%d,%d)", trial, a, b, u, v)
			}
			got = append(got, [2]int{u, v})
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Links visited %v, Edges %v", trial, got, want)
		}
	}
}

func TestMaxDegreeNode(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	g := b.MustBuild()
	if got := g.MaxDegreeNode(); got != 1 {
		t.Fatalf("MaxDegreeNode = %d, want 1", got)
	}
}

func TestAvgDegree(t *testing.T) {
	g := pathGraph(t, 4) // degrees 1,2,2,1
	if got, want := g.AvgDegree(), 1.5; got != want {
		t.Fatalf("AvgDegree = %f, want %f", got, want)
	}
}

func TestNodesByDegreeDesc(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	order := g.NodesByDegreeDesc()
	if order[0] != 0 {
		t.Fatalf("highest degree node = %d, want 0", order[0])
	}
	// Nodes 1 and 2 both have degree 2; ties break by id.
	if order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("order = %v, want [0 1 2 3]", order)
	}
}

func TestHopDistributionExactOnPath(t *testing.T) {
	g := pathGraph(t, 4)
	counts, disc := g.HopDistribution(g.NumNodes(), nil)
	if disc != 0 {
		t.Fatalf("disconnected = %d, want 0", disc)
	}
	// Ordered pairs: distance 1 ×6, distance 2 ×4, distance 3 ×2.
	want := []int64{0, 6, 4, 2}
	for d, c := range counts {
		if c != want[d] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestAlphaForBeta(t *testing.T) {
	g := pathGraph(t, 4)
	// 6+4=10 of 12 ordered pairs are within 2 hops.
	got := g.AlphaForBeta(2, g.NumNodes(), nil)
	if got < 0.83 || got > 0.84 {
		t.Fatalf("AlphaForBeta(2) = %f, want ~0.833", got)
	}
	if a := g.AlphaForBeta(3, g.NumNodes(), nil); a != 1 {
		t.Fatalf("AlphaForBeta(3) = %f, want 1", a)
	}
}

func TestSampleNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := SampleNodes(100, 10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size %d, want 10", len(s))
	}
	seen := make(map[int32]bool)
	for _, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	all := SampleNodes(5, 10, rng)
	if len(all) != 5 {
		t.Fatalf("oversized sample returned %d nodes, want 5", len(all))
	}
}

// Property: for any random graph, BFS from the same source twice yields the
// same reach count, and every reached node has a neighbor one hop closer.
func TestBFSTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(60, 150, seed)
		b := NewBFS(g)
		r1 := b.Run(0)
		dist := make([]int32, g.NumNodes())
		copy(dist, b.Dist())
		r2 := b.Run(0)
		if r1 != r2 {
			return false
		}
		for u := 0; u < g.NumNodes(); u++ {
			d := dist[u]
			if d <= 0 {
				continue
			}
			ok := false
			for _, v := range g.Neighbors(u) {
				if dist[v] == d-1 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: component sizes sum to n and nodes in one component are
// BFS-reachable from each other.
func TestComponentsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(40, 50, seed)
		comp, sizes := g.Components()
		sum := 0
		for _, s := range sizes {
			sum += s
		}
		if sum != g.NumNodes() {
			return false
		}
		b := NewBFS(g)
		b.Run(0)
		for u := 0; u < g.NumNodes(); u++ {
			sameComp := comp[u] == comp[0]
			reached := b.Dist()[u] != Unreached
			if sameComp != reached {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveDiameter(t *testing.T) {
	g := pathGraph(t, 11) // diameter 10
	if got := g.EffectiveDiameter(1.0, 11, nil); got != 10 {
		t.Fatalf("full effective diameter = %d, want 10", got)
	}
	half := g.EffectiveDiameter(0.5, 11, nil)
	if half <= 0 || half >= 10 {
		t.Fatalf("median effective diameter = %d, want interior", half)
	}
	if got := g.EffectiveDiameter(0, 11, nil); got != 0 {
		t.Fatalf("q=0 effective diameter = %d", got)
	}
	if got := NewBuilder(3).MustBuild().EffectiveDiameter(0.9, 3, nil); got != 0 {
		t.Fatalf("edgeless effective diameter = %d", got)
	}
}
