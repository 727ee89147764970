package brokerset

import (
	"testing"

	"brokerset/internal/ctrlplane"
)

func qosSetup(t *testing.T) (*Network, *BrokerSet, *QoSEngine) {
	t.Helper()
	net := testNetwork(t)
	bs, err := net.Select(StrategyMaxSG, 40)
	if err != nil {
		t.Fatal(err)
	}
	return net, bs, bs.QoSEngine(1)
}

func TestQoSBestPath(t *testing.T) {
	net, bs, q := qosSetup(t)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	p, err := q.BestPath(src, dst, PathConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if p.LatencyMs <= 0 || p.BottleneckGbps <= 0 {
		t.Fatalf("path metrics %+v not positive", p)
	}
	if int(p.Nodes[0]) != src || int(p.Nodes[len(p.Nodes)-1]) != dst {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
	// A dominated route must exist through the plain facade too, and the
	// QoS path can be longer but not shorter than the hop-optimal one.
	hopPath, err := bs.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) < len(hopPath) {
		t.Fatalf("latency-optimal path %d nodes < hop-optimal %d", len(p.Nodes), len(hopPath))
	}
	_ = net
}

func TestQoSBestPathConstraints(t *testing.T) {
	_, bs, q := qosSetup(t)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	free, err := q.BestPath(src, dst, PathConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	// A hop bound at the unconstrained length must still succeed.
	bounded, err := q.BestPath(src, dst, PathConstraints{MaxHops: len(free.Nodes) - 1})
	if err != nil {
		t.Fatalf("hop bound at free length rejected: %v", err)
	}
	if len(bounded.Nodes)-1 > len(free.Nodes)-1 {
		t.Fatalf("bounded path longer than bound: %d", len(bounded.Nodes)-1)
	}
	// An absurd bandwidth requirement fails.
	if _, err := q.BestPath(src, dst, PathConstraints{MinBandwidthGbps: 1e9}); err == nil {
		t.Fatal("impossible bandwidth accepted")
	}
}

func TestQoSAlternatives(t *testing.T) {
	_, bs, q := qosSetup(t)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	paths, err := q.Alternatives(src, dst, 3, PathConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no alternatives")
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].LatencyMs < paths[0].LatencyMs {
			t.Fatalf("alternatives not best-first: %f < %f", paths[i].LatencyMs, paths[0].LatencyMs)
		}
	}
}

func TestQoSReserveReleaseReroute(t *testing.T) {
	_, bs, q := qosSetup(t)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	s, err := q.Reserve(src, dst, 0.5, PathConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Path()
	if p.BottleneckGbps < 0 {
		t.Fatalf("negative bottleneck %f", p.BottleneckGbps)
	}
	// Fail the first link and reroute.
	q.FailLink(int(p.Nodes[0]), int(p.Nodes[1]))
	if err := s.Reroute(PathConstraints{}); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	np := s.Path()
	if int(np.Nodes[0]) != src || int(np.Nodes[len(np.Nodes)-1]) != dst {
		t.Fatalf("rerouted endpoints wrong: %v", np.Nodes)
	}
	if np.Nodes[1] == p.Nodes[1] {
		t.Fatalf("reroute kept the failed link: %v", np.Nodes)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err == nil {
		t.Fatal("double release accepted")
	}
}

// TestReserveIsAControlPlaneSession: a facade reservation is a session of
// the coalition control plane. Supersedes internal/routing's
// TestReserveAndRelease, TestRerouteAfterFailure and TestBrokerLoad, which
// checked the same three behaviours on the engine's deleted private ledger.
func TestReserveIsAControlPlaneSession(t *testing.T) {
	_, bs, q := qosSetup(t)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	if q.plane != nil {
		t.Fatal("control plane booted before the first Reserve")
	}
	held := func(ss ...*Session) []*ctrlplane.Session {
		out := make([]*ctrlplane.Session, len(ss))
		for i, s := range ss {
			out[i] = s.s
		}
		return out
	}

	s, err := q.Reserve(src, dst, 0.5, PathConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if s.s.State != ctrlplane.StateCommitted {
		t.Fatalf("reserved session is %v", s.s.State)
	}
	p := s.Path()
	q.FailLink(int(p.Nodes[0]), int(p.Nodes[1]))
	if err := s.Reroute(PathConstraints{}); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if s.s.State != ctrlplane.StateCommitted || s.s.Epoch != 2 {
		t.Fatalf("rerouted session is %v at epoch %d", s.s.State, s.s.Epoch)
	}
	if err := q.plane.CheckInvariants(held(s)); err != nil {
		t.Fatalf("after reroute: %v", err)
	}

	// Over-subscribe the pair: every admitted session holds its bandwidth,
	// the refused one holds nothing.
	big := s.Path().BottleneckGbps * 0.6
	admitted := []*Session{s}
	for {
		more, err := q.Reserve(src, dst, big, PathConstraints{})
		if err != nil {
			break
		}
		if admitted = append(admitted, more); len(admitted) > 200 {
			t.Fatal("over-subscription never refused")
		}
	}
	if err := q.plane.CheckInvariants(held(admitted...)); err != nil {
		t.Fatalf("after a refused Reserve: %v", err)
	}

	for _, a := range admitted {
		if err := a.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Release(); err == nil {
		t.Fatal("double release accepted")
	}
	if err := s.Reroute(PathConstraints{}); err == nil {
		t.Fatal("reroute of a released session accepted")
	}
	if err := q.plane.CheckInvariants(nil); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestSimulateTraffic(t *testing.T) {
	_, bs, _ := qosSetup(t)
	rep, err := bs.SimulateTraffic(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdmissionRate <= 0 || rep.AdmissionRate > 1 {
		t.Fatalf("admission rate %f", rep.AdmissionRate)
	}
	if rep.MeanLatencyMs <= 0 || rep.MeanHops <= 0 {
		t.Fatalf("latency/hops %f/%f", rep.MeanLatencyMs, rep.MeanHops)
	}
	if rep.TopBrokerShare <= 0 || rep.TopBrokerShare > 1 {
		t.Fatalf("top broker share %f", rep.TopBrokerShare)
	}
	if _, err := bs.SimulateTraffic(0, 1); err == nil {
		t.Fatal("zero demands accepted")
	}
}
