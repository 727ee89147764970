package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// rebuildWithout is the reference for WithoutArcs: every surviving edge
// re-added through a Builder, as State.LiveGraph did before the row patch.
func rebuildWithout(g *Graph, drop func(u, v int32) bool) *Graph {
	b := NewBuilder(g.NumNodes())
	g.Edges(func(u, v int) bool {
		if !drop(int32(u), int32(v)) {
			b.AddEdge(u, v)
		}
		return true
	})
	return b.MustBuild()
}

func requireSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || got.m != want.m {
		t.Fatalf("patched graph differs from rebuild:\n got off=%v adj=%v m=%d\nwant off=%v adj=%v m=%d",
			got.off, got.adj, got.m, want.off, want.adj, want.m)
	}
}

// dropSet returns a symmetric drop predicate over the listed edges and the
// endpoints to hand WithoutArcs as dirty rows.
func dropSet(edges ...[2]int32) (rows []int32, drop func(u, v int32) bool) {
	set := make(map[[2]int32]bool, 2*len(edges))
	for _, e := range edges {
		set[e] = true
		set[[2]int32{e[1], e[0]}] = true
		rows = append(rows, e[0], e[1])
	}
	return rows, func(u, v int32) bool { return set[[2]int32{u, v}] }
}

func TestWithoutArcsEmptyDirtySetReturnsReceiver(t *testing.T) {
	g := pathGraph(t, 5)
	if got := g.WithoutArcs(nil, func(u, v int32) bool { return true }); got != g {
		t.Fatal("no dirty rows must hand back the receiver, not a copy")
	}
}

func TestWithoutArcsEdgeRows(t *testing.T) {
	// 0-1-2-3-4 plus a chord 0-4, so the first and last rows have two arcs.
	b := NewBuilder(5)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(0, 4)
	g := b.MustBuild()

	for _, tc := range []struct {
		name  string
		edges [][2]int32
	}{
		{"first row dirty", [][2]int32{{0, 1}}},
		{"last row dirty", [][2]int32{{3, 4}}},
		{"first and last row share the dropped edge", [][2]int32{{0, 4}}},
		{"row filtered to empty", [][2]int32{{1, 2}, {2, 3}}},
		{"first row filtered to empty", [][2]int32{{0, 1}, {0, 4}}},
		{"last row filtered to empty", [][2]int32{{3, 4}, {0, 4}}},
		{"everything dropped", [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, drop := dropSet(tc.edges...)
			got := g.WithoutArcs(rows, drop)
			requireSameCSR(t, got, rebuildWithout(g, drop))
			if got.NumEdges() != g.NumEdges()-len(tc.edges) {
				t.Fatalf("NumEdges = %d, want %d", got.NumEdges(), g.NumEdges()-len(tc.edges))
			}
			for _, e := range tc.edges {
				if got.HasEdge(int(e[0]), int(e[1])) || got.HasEdge(int(e[1]), int(e[0])) {
					t.Fatalf("dropped edge %v still present", e)
				}
			}
		})
	}
	if g.NumEdges() != 5 || !g.HasEdge(0, 4) {
		t.Fatal("WithoutArcs modified its receiver")
	}
}

// TestWithoutArcsDirtyRowNothingDropped lists rows that lose nothing (and
// lists them twice, unsorted): the result is an equal copy.
func TestWithoutArcsDirtyRowNothingDropped(t *testing.T) {
	g := randomGraph(40, 120, 3)
	got := g.WithoutArcs([]int32{39, 0, 17, 0, 39}, func(u, v int32) bool { return false })
	if got == g {
		t.Fatal("dirty rows given: want a copy")
	}
	requireSameCSR(t, got, g)
}

func TestWithoutArcsMatchesRebuildRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		g := randomGraph(n, rng.Intn(4*n), seed)
		var edges [][2]int32
		g.Edges(func(u, v int) bool {
			if rng.Intn(4) == 0 {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
			return true
		})
		rows, drop := dropSet(edges...)
		// Clean rows listed as dirty must come through untouched.
		rows = append(rows, int32(rng.Intn(n)))
		got := g.WithoutArcs(rows, drop)
		requireSameCSR(t, got, rebuildWithout(g, drop))
		for u := 0; u < n; u++ {
			if !slices.IsSorted(got.Neighbors(u)) {
				t.Fatalf("seed %d: row %d not sorted: %v", seed, u, got.Neighbors(u))
			}
		}
	}
}

func TestWithoutArcsPanicsOnOneSidedDrop(t *testing.T) {
	g := pathGraph(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("dropping (0,1) without (1,0) must panic")
		}
	}()
	g.WithoutArcs([]int32{0}, func(u, v int32) bool { return u == 0 })
}
