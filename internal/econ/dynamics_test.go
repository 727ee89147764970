package econ

import (
	"math"
	"math/bits"
	"testing"

	"brokerset/internal/graph"
)

func TestFormCoalitionConvexGameTakesEveryone(t *testing.T) {
	// v(S) = |S|^2: strictly supermodular, so marginal contributions only
	// grow — everyone joins.
	sq := func(mask uint64) float64 {
		c := float64(bits.OnesCount64(mask))
		return c * c
	}
	members, history, err := FormCoalition(6, sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 6 {
		t.Fatalf("members = %v, want all 6", members)
	}
	prev := -1.0
	for _, step := range history {
		if step.Joined < 0 {
			t.Fatalf("formation stopped in a convex game: %+v", step)
		}
		if step.Marginal < prev {
			t.Fatalf("marginals should grow in a convex game: %+v", history)
		}
		prev = step.Marginal
	}
}

func TestFormCoalitionStopsOnDiminishingReturns(t *testing.T) {
	// Concave game sqrt(|S|): the second joiner's marginal (sqrt2 - 1 ≈
	// 0.41) is below its standalone value 1 — formation stops at size 1.
	sqrt := func(mask uint64) float64 {
		return math.Sqrt(float64(bits.OnesCount64(mask)))
	}
	members, history, err := FormCoalition(5, sqrt)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("members = %v, want 1", members)
	}
	last := history[len(history)-1]
	if last.Joined != -1 {
		t.Fatalf("missing stop record: %+v", history)
	}
	if last.Marginal >= last.Standalone {
		t.Fatalf("stop record inconsistent: %+v", last)
	}
}

func TestFormCoalitionOnCoverageGame(t *testing.T) {
	// Path graph: complementary brokers {1,3,5,7} should join (their
	// dominated regions chain into quadratic pair growth); once coverage
	// saturates, overlapping candidates are declined.
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.MustBuild()
	players := []int32{1, 3, 5, 7, 2, 4} // 2,4 fully overlap 1..5's coverage
	v, err := CoverageGame(g, players, 100)
	if err != nil {
		t.Fatal(err)
	}
	members, history, err := FormCoalition(len(players), v)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) == 0 || len(members) == len(players) {
		t.Fatalf("members = %v, want a strict non-empty subset", members)
	}
	// The redundant players (indices 4, 5 = brokers 2, 4) never join.
	for _, m := range members {
		if m >= 4 {
			t.Fatalf("redundant broker joined: members = %v, history = %+v", members, history)
		}
	}
}

func TestFormCoalitionValidation(t *testing.T) {
	v := additiveGame([]float64{1})
	if _, _, err := FormCoalition(0, v); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := FormCoalition(65, v); err == nil {
		t.Error("n=65 accepted")
	}
}
