package coverage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"brokerset/internal/graph"
)

func TestIncrementalMatchesBatchConnectivity(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(60, 140, seed)
		rng := rand.New(rand.NewSource(seed + 5))
		inc := NewIncremental(g)
		var brokers []int32
		for i := 0; i < 12; i++ {
			u := rng.Intn(60)
			inc.AddBroker(u)
			if !inc.InB(u) {
				return false
			}
			brokers = append(brokers, int32(u))
			batch := SaturatedConnectivity(g, brokers)
			if math.Abs(inc.Connectivity()-batch) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalGainMatchesRealizedGain(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(50, 120, seed)
		rng := rand.New(rand.NewSource(seed + 7))
		var base [8]int
		for i := range base {
			base[i] = rng.Intn(50)
		}
		// Every probe runs against the same base state, rebuilt each time.
		for i := 0; i < 10; i++ {
			inc := NewIncremental(g)
			for _, b := range base {
				inc.AddBroker(b)
			}
			u := rng.Intn(50)
			predicted := inc.Gain(u)
			before := inc.pairs
			inc.AddBroker(u)
			if predicted != inc.pairs-before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalIdempotentAdd(t *testing.T) {
	g := star(t, 5)
	inc := NewIncremental(g)
	inc.AddBroker(0)
	p := inc.pairs
	inc.AddBroker(0)
	if inc.pairs != p {
		t.Fatal("double add changed pair count")
	}
	if got := inc.Gain(0); got != 0 {
		t.Fatalf("Gain(existing broker) = %d, want 0", got)
	}
}

func TestIncrementalEmptyGraph(t *testing.T) {
	g := buildGraph(t, 0, nil)
	inc := NewIncremental(g)
	if inc.Connectivity() != 0 {
		t.Fatal("empty graph connectivity != 0")
	}
}

// TestIncrementalGainDoesNotAllocate pins the probe the repair loops call
// per candidate per round: after the scratch has grown once, none.
func TestIncrementalGainDoesNotAllocate(t *testing.T) {
	g := randGraph(200, 900, 11)
	inc := NewIncremental(g)
	for u := 0; u < 200; u += 9 {
		inc.AddBroker(u)
	}
	var sink int64
	allocs := testing.AllocsPerRun(20, func() {
		for u := 0; u < 200; u++ {
			sink += inc.Gain(u)
		}
	})
	if allocs != 0 {
		t.Fatalf("Gain allocated %.1f times per 200 probes, want 0", allocs)
	}
	_ = sink
}

// TestRemovalUpperBoundDominatesExact checks, for every broker of every
// case (exhaustively, not sampled), that the bound is never below the exact
// connectivity of the set without it — the soundness the prune skip rests
// on — and that probing leaves the state untouched.
func TestRemovalUpperBoundDominatesExact(t *testing.T) {
	check := func(name string, g *graph.Graph, brokers []int32) {
		t.Helper()
		inc := NewIncremental(g)
		for _, b := range brokers {
			inc.AddBroker(int(b))
		}
		before := inc.pairs
		for i, b := range brokers {
			rest := append(append([]int32(nil), brokers[:i]...), brokers[i+1:]...)
			exact := SaturatedConnectivity(g, rest)
			if bound := inc.RemovalUpperBound(int(b)); bound < exact {
				t.Fatalf("%s: RemovalUpperBound(%d) = %.12f below exact %.12f (B = %v)", name, b, bound, exact, brokers)
			}
		}
		if inc.pairs != before {
			t.Fatalf("%s: probing changed the pair count", name)
		}
	}

	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randGraph(n, rng.Intn(3*n), seed)
		var brokers []int32
		for _, u := range rng.Perm(n)[:1+rng.Intn(n)] {
			brokers = append(brokers, int32(u))
		}
		check("random", g, brokers)
	}
	check("path, alternate brokers", path(t, 9), []int32{1, 3, 5, 7})
	check("path, adjacent brokers", path(t, 6), []int32{2, 3})

	// A star's centre owns every leaf: the bound is exact (zero).
	g := star(t, 7)
	inc := NewIncremental(g)
	inc.AddBroker(0)
	if got := inc.RemovalUpperBound(0); got != 0 {
		t.Fatalf("star centre: bound %.6f, want 0", got)
	}
	// A non-broker has nothing to remove: the bound is the current value.
	if got := inc.RemovalUpperBound(3); got != inc.Connectivity() {
		t.Fatalf("non-broker: bound %.6f, want current connectivity %.6f", got, inc.Connectivity())
	}
}
