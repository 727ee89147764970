package routing

import (
	"math/rand"
	"slices"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/topology"
)

func viewFixture(t *testing.T) (*topology.Topology, *Metrics, []int32, []bool) {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMetrics(top, nil)
	inB := make([]bool, top.NumNodes())
	for _, b := range brokers {
		inB[b] = true
	}
	return top, m, brokers, inB
}

// TestBestPathOverMatchesEngine: the view-based lock-free search must be
// byte-identical to the engine search over the same state.
func TestBestPathOverMatchesEngine(t *testing.T) {
	top, m, brokers, inB := viewFixture(t)
	eng := NewEngine(top, m, brokers)
	view := m.View()
	rng := rand.New(rand.NewSource(5))
	n := top.NumNodes()
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		opts := Options{}
		switch i % 3 {
		case 1:
			opts.MaxHops = 2 + rng.Intn(6)
		case 2:
			opts.MinBandwidth = rng.Float64() * 5
		}
		want, werr := eng.BestPath(src, dst, opts)
		got, gerr := BestPathOver(view, inB, src, dst, opts)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("(%d,%d,%+v): engine err %v, view err %v", src, dst, opts, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if len(want.Nodes) != len(got.Nodes) || want.Latency != got.Latency || want.Bottleneck != got.Bottleneck {
			t.Fatalf("(%d,%d,%+v): engine %v (%f), view %v (%f)",
				src, dst, opts, want.Nodes, want.Latency, got.Nodes, got.Latency)
		}
		for j := range want.Nodes {
			if want.Nodes[j] != got.Nodes[j] {
				t.Fatalf("(%d,%d): hop %d: %d vs %d", src, dst, j, want.Nodes[j], got.Nodes[j])
			}
		}
	}
}

// TestViewImmutableUnderMutation: a captured View must keep serving the
// pre-mutation state after the live metrics move on — the property epoch
// snapshot consistency is built on.
func TestViewImmutableUnderMutation(t *testing.T) {
	top, m, _, _ := viewFixture(t)
	var u, v int32 = -1, -1
	top.Graph.Edges(func(a, b int) bool {
		u, v = int32(a), int32(b)
		return false
	})
	if u < 0 {
		t.Fatal("no edges")
	}
	view := m.View()
	wantLat := view.Latency(u, v)
	wantOrder := slices.Clone(view.order)
	wantAvail := view.Available(u, v)
	if wantAvail <= 0 {
		t.Fatalf("available(%d,%d) = %f", u, v, wantAvail)
	}

	m.SetLatency(u, v, wantLat+100)
	if err := m.Reserve(u, v, wantAvail/2); err != nil {
		t.Fatal(err)
	}
	m.FailLink(u, v)

	if got := view.Latency(u, v); got != wantLat {
		t.Fatalf("view latency moved: %f -> %f", wantLat, got)
	}
	if !slices.Equal(view.order, wantOrder) {
		t.Fatal("view's latency order moved with the live metrics' re-sort")
	}
	if slices.Equal(m.order, wantOrder) {
		t.Fatal("live latency order did not move: +100 ms must send the link to the end of both rows")
	}
	if got := view.Available(u, v); got != wantAvail {
		t.Fatalf("view available moved: %f -> %f", wantAvail, got)
	}
	if view.Failed(u, v) {
		t.Fatal("view saw post-capture failure")
	}
	// And the live metrics did move.
	if !m.Failed(u, v) || m.Latency(u, v) != wantLat+100 {
		t.Fatal("live metrics did not mutate")
	}
}

// Latency returns the link latency in milliseconds (0 for a non-edge).
func (v *View) Latency(a, b int32) float64 {
	if i := v.top.Graph.ArcOf(int(a), int(b)); i >= 0 {
		return v.latency[i]
	}
	return 0
}
