package graph_test

import (
	"math/rand"
	"testing"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// requireDenseLinkIDs checks that LinkOf is a bijection from g's edges onto
// [0, NumEdges()), numbering them in Edges order, that both orientations of
// an edge read the same id, that LinkOfArc agrees with it on the lower
// endpoint's row, that LinkEnds inverts it, and that a non-adjacent pair
// reads -1.
func requireDenseLinkIDs(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	next := 0
	g.Edges(func(u, v int) bool {
		id := g.LinkOf(u, v)
		switch {
		case id != next:
			t.Fatalf("%s: edge (%d,%d) has link id %d, want %d (ids number the edges in Edges order)", name, u, v, id, next)
		case g.LinkOf(v, u) != id:
			t.Fatalf("%s: edge (%d,%d) reads link id %d one way and %d the other", name, u, v, id, g.LinkOf(v, u))
		case g.LinkOfArc(u, g.ArcOf(u, v)) != id:
			t.Fatalf("%s: LinkOfArc of arc %d->%d is %d, LinkOf %d", name, u, v, g.LinkOfArc(u, g.ArcOf(u, v)), id)
		}
		if a, b := g.LinkEnds(id); a != u || b != v {
			t.Fatalf("%s: LinkEnds(%d) = (%d,%d), want (%d,%d)", name, id, a, b, u, v)
		}
		next++
		return true
	})
	if next != g.NumEdges() {
		t.Fatalf("%s: Edges visited %d edges, NumEdges is %d", name, next, g.NumEdges())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		if !g.HasEdge(u, v) && g.LinkOf(u, v) != -1 {
			t.Fatalf("%s: non-adjacent pair (%d,%d) has link id %d", name, u, v, g.LinkOf(u, v))
		}
	}
}

// TestLinkOfIsDense holds the dense link id to its contract on a generated
// topology, on a live graph WithoutArcs patched from it (rows that lost lower
// arcs, rows that lost upper ones, clean rows after both), and on a region's
// induced subgraph.
func TestLinkOfIsDense(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := top.Graph
	requireDenseLinkIDs(t, "generated", g)

	rng := rand.New(rand.NewSource(7))
	live := dropSome(t, g, rng)
	requireDenseLinkIDs(t, "WithoutArcs", live)
	requireDenseLinkIDs(t, "WithoutArcs twice", dropSome(t, live, rng))

	keep := make([]bool, g.NumNodes())
	for u := range keep {
		keep[u] = rng.Intn(3) > 0
	}
	sub, _, _ := g.InducedSubgraph(keep)
	requireDenseLinkIDs(t, "InducedSubgraph", sub)
}

// dropSome takes about a tenth of g's edges down the way a churn burst does:
// WithoutArcs with both endpoints of every dropped edge listed dirty.
func dropSome(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	down := make(map[[2]int32]bool)
	var dirty []int32
	g.Edges(func(u, v int) bool {
		if rng.Intn(10) == 0 {
			down[[2]int32{int32(u), int32(v)}] = true
			dirty = append(dirty, int32(u), int32(v))
		}
		return true
	})
	dropped := graph.NewBitset(g.NumArcs())
	for u := 0; u < g.NumNodes(); u++ {
		for i, v := range g.Neighbors(u) {
			if down[[2]int32{min(int32(u), v), max(int32(u), v)}] {
				dropped.Set(int32(g.ArcOffset(u) + i))
			}
		}
	}
	live := g.WithoutArcs(dirty, dropped)
	if live.NumEdges() != g.NumEdges()-len(down) {
		t.Fatalf("live graph has %d edges, want %d", live.NumEdges(), g.NumEdges()-len(down))
	}
	return live
}
