package broker

import (
	"math"
	"math/rand"
	"testing"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// checkIncrementalResult cross-checks a MaintainIncremental result against
// the from-scratch connectivity oracle: the reported connectivity must
// equal a full recomputation (never higher), avoided nodes must be absent,
// and the delta bookkeeping must be consistent.
func checkIncrementalResult(t *testing.T, g *graph.Graph, res *MaintainResult, avoid []bool) {
	t.Helper()
	oracle := coverage.SaturatedConnectivity(g, res.Brokers)
	if math.Abs(res.Connectivity-oracle) > 1e-12 {
		t.Fatalf("reported connectivity %.9f, oracle recomputation %.9f", res.Connectivity, oracle)
	}
	seen := make(map[int32]bool, len(res.Brokers))
	for _, b := range res.Brokers {
		if seen[b] {
			t.Fatalf("duplicate broker %d", b)
		}
		seen[b] = true
		if int(b) < len(avoid) && avoid[b] {
			t.Fatalf("avoided node %d in repaired set", b)
		}
	}
	for _, a := range res.Added {
		if !seen[a] {
			t.Fatalf("Added lists %d but it is not in Brokers", a)
		}
	}
	for _, r := range res.Removed {
		if seen[r] {
			t.Fatalf("Removed lists %d but it is still in Brokers", r)
		}
	}
}

// TestMaintainIncrementalRepairsBrokerLoss kills random brokers over many
// rounds and checks every repair against the oracle, the quality floor,
// and the avoidance mask.
func TestMaintainIncrementalRepairsBrokerLoss(t *testing.T) {
	g := internetGraph(t, 0.05).Graph
	n := g.NumNodes()
	const target = 0.9
	base, err := MaintainAvoiding(g, nil, target, nil)
	if err != nil {
		t.Fatalf("seed Maintain: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	cur := base.Brokers
	avoid := make([]bool, n)
	for round := 0; round < 30; round++ {
		// Fail one current broker (and keep it barred).
		victim := cur[rng.Intn(len(cur))]
		avoid[victim] = true
		res, err := MaintainIncremental(g, cur, []int32{victim}, RepairOptions{
			Target:  target,
			Avoid:   avoid,
			Epsilon: 0.02,
		})
		if err != nil {
			t.Fatalf("round %d: MaintainIncremental: %v", round, err)
		}
		checkIncrementalResult(t, g, res, avoid)
		if !res.FullReselect && res.Connectivity < target-0.02 {
			t.Fatalf("round %d: accepted localized repair at %.4f, below floor %.4f",
				round, res.Connectivity, target-0.02)
		}
		if res.FullReselect && res.Connectivity < target {
			t.Fatalf("round %d: full reselect landed at %.4f < target", round, res.Connectivity)
		}
		cur = res.Brokers
	}
}

// TestMaintainIncrementalNoChurnIsNoop checks that with an intact set
// already meeting the target, the incremental pass changes nothing.
func TestMaintainIncrementalNoChurnIsNoop(t *testing.T) {
	g := internetGraph(t, 0.05).Graph
	base, err := MaintainAvoiding(g, nil, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaintainIncremental(g, base.Brokers, nil, RepairOptions{Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 {
		t.Fatalf("no-churn repair added brokers: %v", res.Added)
	}
	if res.FullReselect {
		t.Fatal("no-churn repair fell back to full reselect")
	}
	checkIncrementalResult(t, g, res, nil)
}

// TestMaintainIncrementalQualityFloorFallback forces a repair the local
// pool cannot fix — the whole current set is barred with an empty blast —
// and checks the ε floor triggers the full-reselect fallback, which must
// meet the target.
func TestMaintainIncrementalQualityFloorFallback(t *testing.T) {
	g := internetGraph(t, 0.05).Graph
	base, err := MaintainAvoiding(g, nil, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	avoid := make([]bool, g.NumNodes())
	for _, b := range base.Brokers {
		avoid[b] = true
	}
	res, err := MaintainIncremental(g, base.Brokers, nil, RepairOptions{
		Target:  0.9,
		Avoid:   avoid,
		Epsilon: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullReselect {
		t.Fatalf("expected full-reselect fallback, got localized repair at %.4f", res.Connectivity)
	}
	if res.Connectivity < 0.9 {
		t.Fatalf("fallback connectivity %.4f < target", res.Connectivity)
	}
	checkIncrementalResult(t, g, res, avoid)
}

// TestMaintainIncrementalBadInput mirrors Maintain's input validation.
func TestMaintainIncrementalBadInput(t *testing.T) {
	g := star(t, 8)
	if _, err := MaintainIncremental(g, nil, nil, RepairOptions{Target: 0}); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := MaintainIncremental(g, nil, nil, RepairOptions{Target: 1.5}); err == nil {
		t.Fatal("target 1.5 accepted")
	}
	empty := graph.NewBuilder(0).MustBuild()
	if _, err := MaintainIncremental(empty, nil, nil, RepairOptions{Target: 0.5}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

// TestMaintainIncrementalOutOfRangeBlast checks departed-node ids in the
// blast list (beyond the live graph) are tolerated.
func TestMaintainIncrementalOutOfRangeBlast(t *testing.T) {
	g := star(t, 8)
	res, err := MaintainIncremental(g, []int32{0}, []int32{-3, 100}, RepairOptions{Target: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkIncrementalResult(t, g, res, nil)
}

// TestMaintainIncrementalNeverOverreports fuzzes random graphs, sets, and
// blasts: the reported connectivity must never exceed the recomputed
// oracle (it must equal it), under any outcome.
func TestMaintainIncrementalNeverOverreports(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 30 + rng.Intn(120)
		g := randGraph(n, 3*n, int64(trial))
		old := make([]int32, 0, 8)
		for len(old) < 5 {
			old = append(old, int32(rng.Intn(n)))
		}
		blast := []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		target := 0.2 + 0.5*rng.Float64()
		res, err := MaintainIncremental(g, old, blast, RepairOptions{Target: target, Epsilon: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Epsilon 1 means any localized outcome is accepted — exactly the
		// regime where an overreported connectivity would go unnoticed.
		checkIncrementalResult(t, g, res, nil)
	}
}
