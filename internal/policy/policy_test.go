package policy

import (
	"math/rand"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// chainTopology builds stub(0) -> provider(1) -> provider(2) <- provider(3)
// <- stub(4): a classic up-then-down hierarchy with peak 2.
func chainTopology(t *testing.T) *topology.Topology {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 5),
		Tier:  []uint8{3, 2, 1, 2, 3},
		Name:  make([]string, 5),
	}
	top.SetRel(0, 1, topology.RelCustomer)
	top.SetRel(1, 2, topology.RelCustomer)
	top.SetRel(3, 2, topology.RelCustomer) // 3 buys from 2, so 2->3 is p2c
	top.SetRel(4, 3, topology.RelCustomer)
	return top
}

func TestValleyFreeUpDown(t *testing.T) {
	top := chainTopology(t)
	r := NewRouter(top, nil)
	reached := r.Reachable(0)
	for v := 1; v <= 4; v++ {
		if !reached[v] {
			t.Errorf("node %d unreachable from 0 on up-down path", v)
		}
	}
}

func TestValleyFreeForbidsValley(t *testing.T) {
	// 0 -> 1 <- 2: node 1 is a shared provider; 0 and 2 are its customers.
	// 0 can reach 2 (up then down). But 1 is a valley between 0 and 2 if
	// relationships invert: 0 <- 1 -> 2 (1 buys from nobody, 0 and 2 are
	// its providers): path 0-1-2 would be down then up — forbidden.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 3),
		Tier:  []uint8{2, 3, 2},
		Name:  make([]string, 3),
	}
	// 1 is a customer of both 0 and 2.
	top.SetRel(1, 0, topology.RelCustomer)
	top.SetRel(1, 2, topology.RelCustomer)
	r := NewRouter(top, nil)
	reached := r.Reachable(0)
	if !reached[1] {
		t.Error("provider cannot reach its customer")
	}
	if reached[2] {
		t.Error("valley path 0-1-2 (down then up) was allowed")
	}
	// The customer itself reaches both providers.
	reached = r.Reachable(1)
	if !reached[0] || !reached[2] {
		t.Error("customer cannot reach its providers")
	}
}

func TestValleyFreeSinglePeeringHop(t *testing.T) {
	// 0 -p2p- 1 -p2p- 2: two consecutive peering hops are forbidden.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 3),
		Tier:  []uint8{2, 2, 2},
		Name:  make([]string, 3),
	}
	top.SetRel(0, 1, topology.RelPeer)
	top.SetRel(1, 2, topology.RelPeer)
	r := NewRouter(top, nil)
	reached := r.Reachable(0)
	if !reached[1] {
		t.Error("single peering hop rejected")
	}
	if reached[2] {
		t.Error("two consecutive peering hops allowed")
	}
}

func TestIXPTraversalCountsAsOnePeering(t *testing.T) {
	// 0 -member- IXP(1) -member- 2, then 2 -p2p- 3: the IXP hop consumes
	// the peering allowance, so 3 is unreachable from 0.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: []topology.Class{topology.ClassTransit, topology.ClassIXP, topology.ClassTransit, topology.ClassTransit},
		Tier:  []uint8{2, 0, 2, 2},
		Name:  make([]string, 4),
	}
	top.SetRel(0, 1, topology.RelMember)
	top.SetRel(1, 2, topology.RelMember)
	top.SetRel(2, 3, topology.RelPeer)
	r := NewRouter(top, nil)
	reached := r.Reachable(0)
	if !reached[1] || !reached[2] {
		t.Errorf("IXP traversal failed: reached=%v", reached)
	}
	if reached[3] {
		t.Error("peering after IXP traversal allowed (two peering hops)")
	}
}

func TestIXPThenDownhill(t *testing.T) {
	// 0 -member- IXP(1) -member- 2 -p2c- 3: descending after the exchange
	// is valley-free.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: []topology.Class{topology.ClassTransit, topology.ClassIXP, topology.ClassTransit, topology.ClassEnterprise},
		Tier:  []uint8{2, 0, 2, 3},
		Name:  make([]string, 4),
	}
	top.SetRel(0, 1, topology.RelMember)
	top.SetRel(1, 2, topology.RelMember)
	top.SetRel(3, 2, topology.RelCustomer) // 3 buys from 2
	r := NewRouter(top, nil)
	reached := r.Reachable(0)
	if !reached[3] {
		t.Error("downhill after IXP traversal rejected")
	}
}

func TestDominationConstraintComposes(t *testing.T) {
	top := chainTopology(t)
	// Broker set {1}: edges (0,1),(1,2) dominated; (2,3),(3,4) are not.
	r := NewRouter(top, []int32{1})
	reached := r.Reachable(0)
	if !reached[1] || !reached[2] {
		t.Error("dominated valley-free hops rejected")
	}
	if reached[3] || reached[4] {
		t.Error("undominated edges traversed")
	}
}

func TestFreeEdgesBypassPolicy(t *testing.T) {
	// Valley 0 <- 1 -> 2 again, but the (1,2) edge is a brokerage
	// cooperation link: now 0 -> 1 -> 2 works (down, then free).
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 3),
		Tier:  []uint8{2, 3, 2},
		Name:  make([]string, 3),
	}
	top.SetRel(1, 0, topology.RelCustomer)
	top.SetRel(1, 2, topology.RelCustomer)
	r := NewRouter(top, nil)
	r.SetFree(1, 2)
	reached := r.Reachable(0)
	if !reached[2] {
		t.Error("free edge did not bypass export policy")
	}
}

func TestInterBrokerEdgesAndConversion(t *testing.T) {
	top := chainTopology(t)
	r := NewRouter(top, []int32{1, 2, 3})
	edges := r.InterBrokerEdges()
	if len(edges) != 2 { // (1,2) and (2,3)
		t.Fatalf("inter-broker edges = %v, want 2", edges)
	}
	n, err := r.ConvertInterBrokerEdges(1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	free := 0
	for _, f := range r.arcFree {
		if f {
			free++
		}
	}
	if n != 2 || free != 4 {
		t.Fatalf("converted %d edges, %d free arcs, want 2 and 4", n, free)
	}
	if _, err := r.ConvertInterBrokerEdges(1.5, nil); err == nil {
		t.Error("fraction > 1 accepted")
	}
	// No domination constraint -> no inter-broker edges.
	if got := NewRouter(top, nil).InterBrokerEdges(); got != nil {
		t.Errorf("nil-broker router returned edges %v", got)
	}
}

func TestConnectivityDirectionalVsConverted(t *testing.T) {
	// The Fig 5b/5c shape on a synthetic topology: policy routing under
	// domination is much worse than unconstrained domination, and
	// converting inter-broker edges to free links recovers much of it.
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 120)
	if err != nil {
		t.Fatal(err)
	}

	directional := NewRouter(top, brokers).Connectivity(200, rand.New(rand.NewSource(2)))

	converted := NewRouter(top, brokers)
	if _, err := converted.ConvertInterBrokerEdges(0.3, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	convConn := converted.Connectivity(200, rand.New(rand.NewSource(2)))

	full := NewRouter(top, brokers)
	if _, err := full.ConvertInterBrokerEdges(1.0, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	fullConn := full.Connectivity(200, rand.New(rand.NewSource(2)))

	if !(directional < convConn && convConn <= fullConn) {
		t.Fatalf("want directional < 30%%-converted <= fully-converted, got %.3f, %.3f, %.3f",
			directional, convConn, fullConn)
	}
	if convConn-directional < 0.05 {
		t.Errorf("30%% conversion recovered only %.3f connectivity", convConn-directional)
	}
}

func TestConnectivityTinyTopology(t *testing.T) {
	b := graph.NewBuilder(1)
	top := &topology.Topology{
		Graph: b.MustBuild(),
		Class: make([]topology.Class, 1),
		Tier:  []uint8{3},
		Name:  []string{"AS0"},
	}
	if got := NewRouter(top, nil).Connectivity(10, nil); got != 0 {
		t.Fatalf("single-node connectivity = %f, want 0", got)
	}
}

func TestDistancesMatchReachable(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(top, nil)
	for _, src := range []int{0, 17, 500} {
		dist := r.Distances(src)
		reached := r.Reachable(src)
		for v := range reached {
			if v == src {
				continue
			}
			if reached[v] != (dist[v] != graph.Unreached) {
				t.Fatalf("src %d node %d: reached=%v dist=%d", src, v, reached[v], dist[v])
			}
			if dist[v] == 0 {
				t.Fatalf("non-source node %d at distance 0", v)
			}
		}
	}
}

func TestDistancesRespectPolicyAndHops(t *testing.T) {
	// Chain 0 ->c2p 1 ->c2p 2 <-p2c 3 <-p2c 4: valley-free distance from 0
	// to 4 is 4; the free shortest path is also 4 here. Under a valley at
	// 2 (relationship inversion) the distance becomes unreachable.
	top := chainTopology(t)
	r := NewRouter(top, nil)
	dist := r.Distances(0)
	want := []int32{0, 1, 2, 3, 4}
	for u, w := range want {
		if dist[u] != w {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestDistancesNeverBeatFreeShortestPaths(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(top, nil)
	bfs := graph.NewBFS(top.Graph)
	for _, src := range []int{3, 250} {
		policyDist := r.Distances(src)
		bfs.Run(src)
		free := bfs.Dist()
		for v := 0; v < top.NumNodes(); v++ {
			if policyDist[v] == graph.Unreached {
				continue
			}
			if free[v] == graph.Unreached || policyDist[v] < free[v] {
				t.Fatalf("src %d node %d: policy %d beats free %d", src, v, policyDist[v], free[v])
			}
		}
	}
}

func TestConnectivityParallelMatchesSerial(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(top, brokers)
	serial := r.ConnectivityParallel(200, 1, rand.New(rand.NewSource(9)))
	for _, w := range []int{2, 4, 0} {
		par := r.ConnectivityParallel(200, w, rand.New(rand.NewSource(9)))
		if par != serial {
			t.Fatalf("workers=%d: %f != serial %f", w, par, serial)
		}
	}
}

// Reachable runs a product-space BFS from src and returns the set of nodes
// reachable by a policy-compliant (and, if configured, B-dominated) path,
// as a boolean mask excluding src itself.
func (r *Router) Reachable(src int) []bool {
	reached := make([]bool, r.top.NumNodes())
	r.reachInto(src, make([]uint8, r.top.NumNodes()), nil, reached)
	return reached
}
