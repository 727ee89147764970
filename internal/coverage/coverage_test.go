package coverage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"brokerset/internal/graph"
)

func buildGraph(t testing.TB, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// star returns a star with center 0 and n-1 leaves.
func star(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

// path returns 0-1-2-...-n-1.
func path(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func randGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

func TestStateGainAndAdd(t *testing.T) {
	g := star(t, 5)
	s := NewState(g)
	if got := s.Gain(0); got != 5 {
		t.Fatalf("Gain(center) = %d, want 5", got)
	}
	if got := s.Gain(1); got != 2 {
		t.Fatalf("Gain(leaf) = %d, want 2", got)
	}
	if got := s.Add(1); got != 2 {
		t.Fatalf("Add(1) gain = %d, want 2", got)
	}
	if got := s.Gain(0); got != 3 { // 0,1 covered; 2,3,4 remain
		t.Fatalf("Gain(0) after Add(1) = %d, want 3", got)
	}
	if got := s.Add(0); got != 3 {
		t.Fatalf("Add(0) gain = %d, want 3", got)
	}
	if s.Covered() != 5 {
		t.Fatalf("Covered = %d, want 5", s.Covered())
	}
	if got := s.Add(0); got != 0 {
		t.Fatalf("re-Add gain = %d, want 0", got)
	}
	if !s.InB(0) || !s.InB(1) || s.InB(2) {
		t.Errorf("InB wrong: InB(0)=%v InB(1)=%v InB(2)=%v", s.InB(0), s.InB(1), s.InB(2))
	}
	if !s.IsCovered(3) {
		t.Errorf("IsCovered(3) = false, want true")
	}
}

func TestFMatchesIncrementalState(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(40, 80, seed)
		rng := rand.New(rand.NewSource(seed + 99))
		var brokers []int32
		s := NewState(g)
		for i := 0; i < 8; i++ {
			u := rng.Intn(40)
			gainBefore := s.Gain(u)
			realized := s.Add(u)
			if gainBefore != realized {
				return false
			}
			brokers = append(brokers, int32(u))
		}
		return F(g, brokers) == s.Covered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Submodularity (Lemma 3): for S ⊆ T and any u, gain at S >= gain at T.
func TestCoverageSubmodular(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(30, 60, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		small := NewState(g)
		big := NewState(g)
		for i := 0; i < 4; i++ {
			u := rng.Intn(30)
			small.Add(u)
			big.Add(u)
		}
		for i := 0; i < 4; i++ {
			big.Add(rng.Intn(30))
		}
		for u := 0; u < 30; u++ {
			if small.Gain(u) < big.Gain(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDominatedComponentsOnPath(t *testing.T) {
	// Path 0-1-2-3-4, B = {1,3}: all edges dominated, one component of 5.
	g := path(t, 5)
	d := NewDominated(g, []int32{1, 3})
	comp, sizes := d.Components()
	if len(sizes) != 1 || sizes[0] != 5 {
		t.Fatalf("sizes = %v, want [5]", sizes)
	}
	for u := 0; u < 5; u++ {
		if comp[u] != 0 {
			t.Fatalf("comp = %v, want all 0", comp)
		}
	}

	// B = {1}: edges (0,1),(1,2) dominated; nodes 3,4 ineligible... node 3
	// is not adjacent to B. Component {0,1,2}.
	d = NewDominated(g, []int32{1})
	comp, sizes = d.Components()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("sizes = %v, want [3]", sizes)
	}
	if comp[3] != graph.Unreached || comp[4] != graph.Unreached {
		t.Fatalf("uncovered nodes labeled: %v", comp)
	}
}

func TestDominatedSeparateComponents(t *testing.T) {
	// Path 0-1-2-3-4-5-6 with B = {1,5}: edge (2,3) and (3,4) undominated,
	// so {0,1,2} and {4,5,6} are separate dominated components.
	g := path(t, 7)
	d := NewDominated(g, []int32{1, 5})
	comp, sizes := d.Components()
	if len(sizes) != 2 {
		t.Fatalf("got %d components (sizes %v), want 2", len(sizes), sizes)
	}
	if comp[0] == comp[6] {
		t.Fatal("0 and 6 in one dominated component, want separate")
	}
	if d.HasPath(0, 2) != true {
		t.Error("HasPath(0,2) = false, want true")
	}
	if d.HasPath(0, 6) != false {
		t.Error("HasPath(0,6) = true, want false")
	}
}

func TestSaturatedConnectivity(t *testing.T) {
	g := path(t, 5)
	// B = {1,3} dominates everything: all 10 pairs connected.
	if got := SaturatedConnectivity(g, []int32{1, 3}); got != 1 {
		t.Fatalf("full domination connectivity = %f, want 1", got)
	}
	// B = {1}: component {0,1,2} gives 3 pairs of 10.
	if got := SaturatedConnectivity(g, []int32{1}); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("connectivity = %f, want 0.3", got)
	}
	// Empty broker set: nothing connected.
	if got := SaturatedConnectivity(g, nil); got != 0 {
		t.Fatalf("empty-B connectivity = %f, want 0", got)
	}
}

func TestDominatedPath(t *testing.T) {
	// Cycle of 6 with B = {1}: from 0 to 2 the dominated route must go
	// through 1 (the other side 0-5-4-3-2 has undominated hops).
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6)
	}
	g := b.MustBuild()
	d := NewDominated(g, []int32{1})
	p := d.Path(0, 2)
	if len(p) != 3 || p[1] != 1 {
		t.Fatalf("Path(0,2) = %v, want [0 1 2]", p)
	}
	if !VerifyDominated(g, []int32{1}, p) {
		t.Fatal("VerifyDominated rejected a valid dominated path")
	}
	if got := d.Path(0, 3); got != nil {
		t.Fatalf("Path(0,3) = %v, want nil (3 not coverable)", got)
	}
	if p := d.Path(4, 4); len(p) != 1 || p[0] != 4 {
		t.Fatalf("self path = %v", p)
	}
}

func TestVerifyDominatedRejects(t *testing.T) {
	g := path(t, 4)
	if VerifyDominated(g, []int32{1}, nil) {
		t.Error("accepted empty path")
	}
	// 2-3 hop has no broker endpoint.
	if VerifyDominated(g, []int32{1}, []int32{1, 2, 3}) {
		t.Error("accepted path with undominated hop")
	}
	// Non-adjacent hop.
	if VerifyDominated(g, []int32{0, 2}, []int32{0, 2}) {
		t.Error("accepted path with non-edge hop")
	}
	if !VerifyDominated(g, []int32{1}, []int32{0, 1, 2}) {
		t.Error("rejected valid path")
	}
}

func TestLHopExactOnPath(t *testing.T) {
	// Path of 4 with full domination (B covers all edges).
	g := path(t, 4)
	conn := LHop(g, []int32{1, 2}, LHopOptions{MaxL: 3, Samples: 10})
	// Ordered pairs: 12 total; within 1 hop: 6; within 2: 10; within 3: 12.
	want := []float64{0.5, 10.0 / 12, 1}
	for i := range want {
		if math.Abs(conn[i]-want[i]) > 1e-12 {
			t.Fatalf("conn = %v, want %v", conn, want)
		}
	}
}

func TestLHopRespectsDomination(t *testing.T) {
	// Path 0-1-2-3-4 with B={1}: reachable pairs only inside {0,1,2}.
	g := path(t, 5)
	conn := LHop(g, []int32{1}, LHopOptions{MaxL: 4, Samples: 10})
	// Ordered pairs among {0,1,2} all within 2 hops: 6 of 20 total.
	if math.Abs(conn[3]-0.3) > 1e-12 {
		t.Fatalf("conn[l=4] = %f, want 0.3", conn[3])
	}
	if conn[0] >= conn[3]+1e-12 {
		t.Fatalf("curve not nondecreasing: %v", conn)
	}
}

func TestLHopFreeMatchesFullBrokerSet(t *testing.T) {
	g := randGraph(60, 120, 5)
	all := make([]int32, 60)
	for i := range all {
		all[i] = int32(i)
	}
	free := LHopFree(g, LHopOptions{MaxL: 5, Samples: 60})
	withB := LHop(g, all, LHopOptions{MaxL: 5, Samples: 60})
	for i := range free {
		if math.Abs(free[i]-withB[i]) > 1e-12 {
			t.Fatalf("free = %v, B=V = %v differ at l=%d", free, withB, i+1)
		}
	}
}

func TestLHopSamplingApproximatesExact(t *testing.T) {
	g := randGraph(400, 1600, 9)
	brokers := g.NodesByDegreeDesc()[:40]
	exact := LHop(g, brokers, LHopOptions{MaxL: 5, Samples: 400})
	est := LHop(g, brokers, LHopOptions{MaxL: 5, Samples: 150, Rng: rand.New(rand.NewSource(3))})
	if dev := MaxDeviation(exact, est); dev > 0.05 {
		t.Fatalf("sampled curve deviates %f from exact, want <= 0.05", dev)
	}
}

func TestLHopSaturatesToComponentConnectivity(t *testing.T) {
	// For large l, the l-hop connectivity must converge to the saturated
	// connectivity (ordered vs unordered fractions coincide).
	g := randGraph(100, 250, 11)
	brokers := g.NodesByDegreeDesc()[:15]
	sat := SaturatedConnectivity(g, brokers)
	conn := LHop(g, brokers, LHopOptions{MaxL: 30, Samples: 100})
	if math.Abs(conn[len(conn)-1]-sat) > 1e-9 {
		t.Fatalf("l-hop limit %f != saturated %f", conn[len(conn)-1], sat)
	}
}

func TestMaxDeviationAndFeasibility(t *testing.T) {
	a := []float64{0.1, 0.5, 0.9}
	b := []float64{0.1, 0.45, 0.95}
	if got := MaxDeviation(a, b); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("MaxDeviation = %f, want 0.05", got)
	}
	if !FeasibleWithin(a, b, 0.05) {
		t.Error("FeasibleWithin(0.05) = false, want true")
	}
	if FeasibleWithin(a, b, 0.04) {
		t.Error("FeasibleWithin(0.04) = true, want false")
	}
	if got := MaxDeviation(a, b[:2]); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("prefix MaxDeviation = %f, want 0.05", got)
	}
	if got := MaxDeviation(nil, nil); got != 0 {
		t.Fatalf("empty MaxDeviation = %f, want 0", got)
	}
}

func TestLHopTinyGraph(t *testing.T) {
	g := buildGraph(t, 1, nil)
	conn := LHop(g, []int32{0}, LHopOptions{MaxL: 3, Samples: 5})
	for _, c := range conn {
		if c != 0 {
			t.Fatalf("single-node connectivity = %v, want zeros", conn)
		}
	}
}

// Property: saturated connectivity is monotone in B.
func TestSaturatedMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(50, 100, seed)
		order := g.NodesByDegreeDesc()
		prev := 0.0
		for k := 1; k <= 20; k += 4 {
			c := SaturatedConnectivity(g, order[:k])
			if c+1e-12 < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: every pair in one dominated component has a dominated path, and
// the path verifies.
func TestDominatedPathConsistency(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(40, 90, seed)
		brokers := g.NodesByDegreeDesc()[:6]
		d := NewDominated(g, brokers)
		comp, _ := d.Components()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			u, v := rng.Intn(40), rng.Intn(40)
			if u == v {
				continue // self-pairs are not E2E connections
			}
			p := d.Path(u, v)
			sameComp := comp[u] != graph.Unreached && comp[u] == comp[v]
			if sameComp != (p != nil) {
				return false
			}
			if p != nil && len(p) > 1 && !VerifyDominated(g, brokers, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Parallel evaluation must give the same counts as serial, at any worker
// count.
func TestLHopParallelMatchesSerial(t *testing.T) {
	g := randGraph(300, 1200, 21)
	brokers := g.NodesByDegreeDesc()[:30]
	serial := LHop(g, brokers, LHopOptions{MaxL: 6, Samples: 300, Parallelism: 1})
	for _, p := range []int{2, 4, -1} {
		par := LHop(g, brokers, LHopOptions{MaxL: 6, Samples: 300, Parallelism: p})
		for i := range serial {
			if math.Abs(serial[i]-par[i]) > 1e-12 {
				t.Fatalf("parallelism %d: curve differs at l=%d: %v vs %v", p, i+1, par, serial)
			}
		}
	}
	// More workers than sources degrades gracefully.
	tiny := LHop(g, brokers, LHopOptions{MaxL: 3, Samples: 2, Parallelism: 64})
	if len(tiny) != 3 {
		t.Fatalf("tiny sample curve: %v", tiny)
	}
}
