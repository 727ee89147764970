package broker

import (
	"testing"

	"brokerset/internal/coverage"
	"brokerset/internal/topology"
)

func TestMaintainFromScratch(t *testing.T) {
	top := internetGraph(t, 0.02)
	res, err := MaintainAvoiding(top.Graph, nil, 0.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connectivity < 0.8 {
		t.Fatalf("connectivity %f below target", res.Connectivity)
	}
	if len(res.Added) != len(res.Brokers) {
		t.Fatalf("from-scratch run should add everything: %d vs %d", len(res.Added), len(res.Brokers))
	}
}

func TestMaintainKeepsGoodSet(t *testing.T) {
	top := internetGraph(t, 0.02)
	base, err := MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	conn := coverage.SaturatedConnectivity(top.Graph, base)
	res, err := MaintainAvoiding(top.Graph, base, conn-0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 {
		t.Fatalf("maintenance added %d brokers to an already-sufficient set", len(res.Added))
	}
	if res.Connectivity < conn-0.011 {
		t.Fatalf("connectivity dropped below target: %f", res.Connectivity)
	}
}

func TestMaintainPrunesRedundant(t *testing.T) {
	top := internetGraph(t, 0.02)
	base, err := MaxSG(top.Graph, 60)
	if err != nil {
		t.Fatal(err)
	}
	// A very loose target: most brokers are redundant and must be pruned.
	res, err := MaintainAvoiding(top.Graph, base, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Brokers) >= len(base) {
		t.Fatalf("pruning kept all %d brokers for a 0.3 target", len(res.Brokers))
	}
	if res.Connectivity < 0.3 {
		t.Fatalf("pruned below target: %f", res.Connectivity)
	}
}

func TestMaintainHealsAfterTopologyChange(t *testing.T) {
	// Select on one topology, then maintain against a different snapshot
	// (new seed = re-measured Internet); the old set should mostly carry
	// over with a few additions.
	oldTop := internetGraph(t, 0.02)
	base, err := MaxSG(oldTop.Graph, 50)
	if err != nil {
		t.Fatal(err)
	}
	target := coverage.SaturatedConnectivity(oldTop.Graph, base) - 0.05
	newTop, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaintainAvoiding(newTop.Graph, base, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connectivity < target {
		t.Fatalf("healed connectivity %f below target %f", res.Connectivity, target)
	}
	// Id space is the same size, so nothing should have been dropped for
	// range reasons; additions may be needed.
	total := 0
	for range res.Brokers {
		total++
	}
	if total == 0 {
		t.Fatal("empty maintained set")
	}
}

func TestMaintainDropsOutOfRangeBrokers(t *testing.T) {
	top := internetGraph(t, 0.02)
	n := top.Graph.NumNodes()
	res, err := MaintainAvoiding(top.Graph, []int32{int32(n + 5), 3}, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Brokers {
		if int(b) >= n {
			t.Fatalf("out-of-range broker %d kept", b)
		}
	}
	found := false
	for _, b := range res.Removed {
		if int(b) == n+5 {
			found = true
		}
	}
	if !found {
		t.Fatal("out-of-range broker not reported as removed")
	}
}

func TestMaintainValidation(t *testing.T) {
	top := internetGraph(t, 0.02)
	if _, err := MaintainAvoiding(top.Graph, nil, 0, nil); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := MaintainAvoiding(top.Graph, nil, 1.5, nil); err == nil {
		t.Error("target > 1 accepted")
	}
	// Unreachable target: connectivity can never hit 1.0 when the graph
	// is disconnected (off-grid nodes).
	if _, err := MaintainAvoiding(top.Graph, nil, 1.0, nil); err == nil {
		t.Error("unreachable target accepted")
	}
}

// MaintainAvoiding must drop avoided incumbents and never hire an avoided
// replacement — the churn healer's contract for failed brokers and departed
// nodes.
func TestMaintainAvoiding(t *testing.T) {
	top := internetGraph(t, 0.02)
	base, err := MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	target := coverage.SaturatedConnectivity(top.Graph, base) - 0.05
	// Avoid the first few incumbents.
	avoid := make([]bool, top.Graph.NumNodes())
	avoided := map[int32]bool{}
	for _, b := range base[:3] {
		avoid[b] = true
		avoided[b] = true
	}
	res, err := MaintainAvoiding(top.Graph, base, target, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connectivity < target {
		t.Fatalf("connectivity %f below target %f", res.Connectivity, target)
	}
	for _, b := range res.Brokers {
		if avoided[b] {
			t.Fatalf("avoided node %d in maintained set", b)
		}
	}
	removed := map[int32]bool{}
	for _, b := range res.Removed {
		removed[b] = true
	}
	for b := range avoided {
		if !removed[b] {
			t.Fatalf("avoided incumbent %d not reported removed", b)
		}
	}
	// A short avoid mask (fewer entries than nodes) must be tolerated.
	if _, err := MaintainAvoiding(top.Graph, base, target, []bool{true}); err != nil {
		t.Fatalf("short mask rejected: %v", err)
	}
}
