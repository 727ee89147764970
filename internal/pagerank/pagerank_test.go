package pagerank

import (
	"math"
	"math/rand"
	"testing"

	"brokerset/internal/graph"
)

func TestComputeEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if _, err := Compute(g); err == nil {
		t.Fatal("Compute accepted empty graph")
	}
}

func TestComputeSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(100)
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Intn(100), rng.Intn(100))
	}
	g := b.MustBuild()
	pr, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pr {
		if p <= 0 {
			t.Fatalf("non-positive rank %f", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %f, want 1", sum)
	}
}

func TestSymmetricGraphUniformRank(t *testing.T) {
	// Cycle: all nodes equivalent, ranks equal.
	b := graph.NewBuilder(10)
	for i := 0; i < 10; i++ {
		b.AddEdge(i, (i+1)%10)
	}
	g := b.MustBuild()
	pr, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pr {
		if math.Abs(p-0.1) > 1e-6 {
			t.Fatalf("cycle rank = %v, want uniform 0.1", pr)
		}
	}
}

func TestStarCenterRanksHighest(t *testing.T) {
	b := graph.NewBuilder(8)
	for i := 1; i < 8; i++ {
		b.AddEdge(0, i)
	}
	g := b.MustBuild()
	ids, pr, err := Rank(g)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0 {
		t.Fatalf("top-ranked node = %d, want center 0", ids[0])
	}
	if pr[0] <= pr[1] {
		t.Fatalf("center rank %f not above leaf rank %f", pr[0], pr[1])
	}
	// Leaves are symmetric: identical ranks, tie-broken by id.
	for i := 2; i < 8; i++ {
		if math.Abs(pr[i]-pr[1]) > 1e-9 {
			t.Fatalf("leaf ranks differ: %v", pr)
		}
		if ids[i-1] >= ids[i] {
			t.Fatalf("tie-break order wrong: %v", ids)
		}
	}
}

func TestDanglingNodesConserveMass(t *testing.T) {
	// Two connected nodes plus two isolated ones.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	pr, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("mass leaked: sum = %f", sum)
	}
	if pr[2] <= 0 || math.Abs(pr[2]-pr[3]) > 1e-9 {
		t.Fatalf("isolated nodes should share equal positive rank: %v", pr)
	}
}

func TestHigherDegreeHigherRankOnHubGraph(t *testing.T) {
	// Two hubs of different sizes sharing one bridge.
	b := graph.NewBuilder(12)
	for i := 2; i < 8; i++ { // hub 0 has 6 leaves
		b.AddEdge(0, i)
	}
	for i := 8; i < 12; i++ { // hub 1 has 4 leaves
		b.AddEdge(1, i)
	}
	b.AddEdge(0, 1)
	g := b.MustBuild()
	pr, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if pr[0] <= pr[1] {
		t.Fatalf("bigger hub rank %f <= smaller hub rank %f", pr[0], pr[1])
	}
}
