package routing

import (
	"math/rand"
	"slices"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// peerTopology wraps g as a topology of tier-3 networks joined by peer
// links.
func peerTopology(g *graph.Graph) *topology.Topology {
	n := g.NumNodes()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	for i := range top.Tier {
		top.Tier[i] = 3
	}
	g.Edges(func(u, v int) bool {
		top.SetRel(u, v, topology.RelPeer)
		return true
	})
	return top
}

// lineTopology builds 0-1-2-3-4 with peer links.
func lineTopology(t testing.TB, n int) *topology.Topology {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return peerTopology(b.MustBuild())
}

// diamondTopology: 0 connects to 3 via 1 (fast) and 2 (slow).
func diamondTopology(t testing.TB) (*topology.Topology, *Metrics) {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 3)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	top := peerTopology(b.MustBuild())
	m := DefaultMetrics(top, rand.New(rand.NewSource(1)))
	// Force the 1-route fast and the 2-route slow, both 10 Gbps.
	m.SetLatency(0, 1, 1)
	m.SetLatency(1, 3, 1)
	m.SetLatency(0, 2, 50)
	m.SetLatency(2, 3, 50)
	for _, e := range [][2]int32{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		m.SetCapacity(e[0], e[1], 10)
	}
	return top, m
}

func TestDefaultMetricsCoverAllEdges(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMetrics(top, nil)
	top.Graph.Edges(func(u, v int) bool {
		if m.Latency(int32(u), int32(v)) <= 0 {
			t.Fatalf("edge (%d,%d) has no latency", u, v)
		}
		if m.Capacity(int32(u), int32(v)) <= 0 {
			t.Fatalf("edge (%d,%d) has no capacity", u, v)
		}
		return true
	})
	// IXP membership links should be faster than transit links on average.
	var memberLat, transitLat float64
	var memberN, transitN int
	top.Graph.Edges(func(u, v int) bool {
		switch top.Rel(u, v) {
		case topology.RelMember:
			memberLat += m.Latency(int32(u), int32(v))
			memberN++
		case topology.RelCustomer, topology.RelProvider:
			transitLat += m.Latency(int32(u), int32(v))
			transitN++
		}
		return true
	})
	if memberN == 0 || transitN == 0 {
		t.Fatal("missing edge classes")
	}
	if memberLat/float64(memberN) >= transitLat/float64(transitN) {
		t.Errorf("IXP links (%.1fms avg) should be faster than transit (%.1fms avg)",
			memberLat/float64(memberN), transitLat/float64(transitN))
	}
}

func TestMetricsReserveRelease(t *testing.T) {
	top := lineTopology(t, 3)
	m := DefaultMetrics(top, nil)
	cap := m.Capacity(0, 1)
	if err := m.Reserve(0, 1, cap/2); err != nil {
		t.Fatal(err)
	}
	if got := m.Available(0, 1); got != cap/2 {
		t.Fatalf("available = %f, want %f", got, cap/2)
	}
	if err := m.Reserve(0, 1, cap); err == nil {
		t.Fatal("over-reservation accepted")
	}
	m.Release(0, 1, cap/2)
	if got := m.Available(0, 1); got != cap {
		t.Fatalf("after release available = %f, want %f", got, cap)
	}
	// Releasing more than reserved clamps at zero usage.
	m.Release(0, 1, 999)
	if got := m.Available(0, 1); got != cap {
		t.Fatalf("over-release corrupted usage: %f", got)
	}
	if r := m.Residual(0, 1); r != cap {
		t.Fatalf("residual = %f, want %f", r, cap)
	}
}

func TestMetricsFailRestore(t *testing.T) {
	top := lineTopology(t, 3)
	m := DefaultMetrics(top, nil)
	m.FailLink(0, 1)
	if !m.Failed(0, 1) || m.Available(0, 1) != 0 {
		t.Fatal("failed link still available")
	}
	m.RestoreLink(0, 1)
	if m.Failed(0, 1) || m.Available(0, 1) <= 0 {
		t.Fatal("restored link unavailable")
	}
}

func TestBestPathPrefersLowLatency(t *testing.T) {
	top, m := diamondTopology(t)
	// All nodes brokers: every edge dominated.
	e := NewEngine(top, m, []int32{0, 1, 2, 3})
	p, err := e.BestPath(0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 || p.Nodes[1] != 1 {
		t.Fatalf("path = %v, want via node 1", p.Nodes)
	}
	if p.Latency != 2 {
		t.Fatalf("latency = %f, want 2", p.Latency)
	}
	if p.Bottleneck != 10 {
		t.Fatalf("bottleneck = %f, want 10", p.Bottleneck)
	}
}

func TestBestPathRespectsDomination(t *testing.T) {
	top := lineTopology(t, 5)
	// Broker only at node 1: edges (0,1),(1,2) dominated, rest not.
	e := NewEngine(top, nil, []int32{1})
	if _, err := e.BestPath(0, 2, Options{}); err != nil {
		t.Fatalf("dominated path rejected: %v", err)
	}
	if _, err := e.BestPath(0, 4, Options{}); err == nil {
		t.Fatal("undominated path accepted")
	}
}

func TestBestPathInvalidEndpoints(t *testing.T) {
	top := lineTopology(t, 3)
	e := NewEngine(top, nil, []int32{1})
	if _, err := e.BestPath(-1, 2, Options{}); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := e.BestPath(0, 9, Options{}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	p, err := e.BestPath(2, 2, Options{})
	if err != nil || len(p.Nodes) != 1 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestBestPathHopBound(t *testing.T) {
	line := lineTopology(t, 5)
	e := NewEngine(line, nil, []int32{0, 1, 2, 3, 4})
	if _, err := e.BestPath(0, 4, Options{MaxHops: 3}); err == nil {
		t.Fatal("4-hop path accepted under MaxHops=3")
	}
	p, err := e.BestPath(0, 4, Options{MaxHops: 4})
	if err != nil {
		t.Fatalf("4-hop path rejected under MaxHops=4: %v", err)
	}
	if p.Hops() != 4 {
		t.Fatalf("hops = %d, want 4", p.Hops())
	}
}

func TestBestPathMinBandwidth(t *testing.T) {
	top, m := diamondTopology(t)
	e := NewEngine(top, m, []int32{0, 1, 2, 3})
	// Saturate the fast route.
	if err := m.Reserve(0, 1, 9.5); err != nil {
		t.Fatal(err)
	}
	p, err := e.BestPath(0, 3, Options{MinBandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[1] != 2 {
		t.Fatalf("path = %v, want detour via 2", p.Nodes)
	}
}

func TestBestPathBrokersOnly(t *testing.T) {
	top := lineTopology(t, 5)
	// Brokers 1,2,3: path 0..4 exists via them.
	e := NewEngine(top, nil, []int32{1, 2, 3})
	p, err := e.BestPath(0, 4, Options{BrokersOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range p.Nodes[1 : len(p.Nodes)-1] {
		if u != 1 && u != 2 && u != 3 {
			t.Fatalf("non-broker intermediate %d in %v", u, p.Nodes)
		}
	}
	// Brokers 1,3 only: node 2 is a non-broker intermediate; brokers-only
	// routing must fail even though the dominated path exists.
	e2 := NewEngine(top, nil, []int32{1, 3})
	if _, err := e2.BestPath(0, 4, Options{BrokersOnly: true}); err == nil {
		t.Fatal("brokers-only path accepted through non-broker")
	}
	if _, err := e2.BestPath(0, 4, Options{}); err != nil {
		t.Fatalf("dominated path with hired transit rejected: %v", err)
	}
}

func TestKAlternatives(t *testing.T) {
	top, m := diamondTopology(t)
	e := NewEngine(top, m, []int32{0, 1, 2, 3})
	paths, err := e.KAlternatives(0, 3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d alternatives, want 2 (diamond)", len(paths))
	}
	if paths[0].Nodes[1] != 1 || paths[1].Nodes[1] != 2 {
		t.Fatalf("alternatives = %v, %v", paths[0].Nodes, paths[1].Nodes)
	}
	// True latency reported despite penalties.
	if paths[1].Latency != 100 {
		t.Fatalf("alternative latency = %f, want 100", paths[1].Latency)
	}
	if _, err := e.KAlternatives(0, 3, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Penalties must not leak into subsequent queries: the column is back
	// to all ones, so a second call repeats the first.
	p, err := e.BestPath(0, 3, Options{})
	if err != nil || p.Nodes[1] != 1 {
		t.Fatalf("penalties leaked: %v, %v", p, err)
	}
	again, err := e.KAlternatives(0, 3, 3, Options{})
	if err != nil || len(again) != len(paths) {
		t.Fatalf("second call: %d alternatives, err %v", len(again), err)
	}
	for i := range paths {
		if pathSignature(again[i].Nodes) != pathSignature(paths[i].Nodes) || again[i].Latency != paths[i].Latency {
			t.Fatalf("second call: alternative %d is %v, first call gave %v", i, again[i].Nodes, paths[i].Nodes)
		}
	}
	for a, f := range e.penalty {
		if f != 1 {
			t.Fatalf("arc %d left with penalty %v", a, f)
		}
	}
}

// End-to-end: on a generated topology with a MaxSG broker set, every
// covered pair is routable and reservations respect capacity.
func TestEngineOnInternetTopology(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 30)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(top, nil, brokers)
	d := coverage.NewDominated(top.Graph, brokers)
	comp, _ := d.Components()
	rng := rand.New(rand.NewSource(3))
	routed := 0
	for i := 0; i < 50; i++ {
		u := rng.Intn(top.NumNodes())
		v := rng.Intn(top.NumNodes())
		if u == v {
			continue
		}
		p, err := e.BestPath(u, v, Options{})
		connected := comp[u] != graph.Unreached && comp[u] == comp[v]
		if connected != (err == nil) {
			t.Fatalf("pair (%d,%d): dominated-component connectivity %v but BestPath err=%v", u, v, connected, err)
		}
		if err == nil {
			routed++
			if !coverage.VerifyDominated(top.Graph, brokers, p.Nodes) {
				t.Fatalf("BestPath returned undominated path %v", p.Nodes)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no routable sampled pairs — broken test setup")
	}
}

// TestNewSubMetricsMirrorsParent: a region's metrics, read off the parent's
// rows by arc and link correspondence, equal a per-edge copy through the node
// mapping on every arc and every link — and so stay symmetric.
func TestNewSubMetricsMirrorsParent(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	parent := DefaultMetrics(top, rand.New(rand.NewSource(9)))
	part, err := topology.PartitionRegions(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < part.N; r++ {
		sub, orig, arcOrig := part.Subtopology(r)
		got := NewSubMetrics(sub, orig, arcOrig, parent)
		want := newMetrics(sub, func(_ int, u, v int32) (float64, float64) {
			return parent.Latency(orig[u], orig[v]), parent.Capacity(orig[u], orig[v])
		})
		for a := 0; a < sub.Graph.NumArcs(); a++ {
			if got.latency[a] != want.latency[a] {
				t.Fatalf("region %d arc %d: %v ms, want %v", r, a, got.latency[a], want.latency[a])
			}
		}
		if !slices.Equal(got.capacity, want.capacity) || len(got.capacity) != sub.Graph.NumEdges() {
			t.Fatalf("region %d: capacity column gathered by link differs from the per-edge copy (%d entries for %d links)",
				r, len(got.capacity), sub.Graph.NumEdges())
		}
		assertArcSymmetry(t, sub, &got.arcState, "NewSubMetrics")
		if !slices.Equal(got.order, want.order) {
			t.Fatalf("region %d: latency order gathered from the parent differs from the one sorted in place", r)
		}
	}
}
