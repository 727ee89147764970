package broker

import (
	"math/rand"
	"testing"
	"testing/quick"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

func star(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

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

func internetGraph(t testing.TB, scale float64) *topology.Topology {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateInternet: %v", err)
	}
	return top
}

func TestGreedyMCBStar(t *testing.T) {
	g := star(t, 10)
	b, err := GreedyMCB(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The center covers everything; greedy stops after one pick.
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("brokers = %v, want [0]", b)
	}
}

func TestGreedyMCBBadInput(t *testing.T) {
	g := star(t, 3)
	if _, err := GreedyMCB(g, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := GreedyMCB(graph.NewBuilder(0).MustBuild(), 1); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := GreedyMCBNaive(g, -1); err == nil {
		t.Error("naive k=-1 accepted")
	}
}

func TestGreedyLazyMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randGraph(120, 360, seed)
		lazy, err := GreedyMCB(g, 15)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := GreedyMCBNaive(g, 15)
		if err != nil {
			t.Fatal(err)
		}
		if len(lazy) != len(naive) {
			t.Fatalf("seed %d: lazy %d brokers, naive %d", seed, len(lazy), len(naive))
		}
		for i := range lazy {
			if lazy[i] != naive[i] {
				t.Fatalf("seed %d: selection order differs at %d: %v vs %v", seed, i, lazy, naive)
			}
		}
	}
}

// The greedy guarantee: f(greedy_k) >= (1-1/e) f(opt_k). Verified against
// the exact optimum on small graphs.
func TestGreedyApproximationGuarantee(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randGraph(14, 22, seed)
		for k := 1; k <= 3; k++ {
			gr, err := GreedyMCB(g, k)
			if err != nil {
				t.Fatal(err)
			}
			_, optF := ExactMaxMCB(g, k)
			got := coverage.F(g, gr)
			if float64(got) < (1-1/2.718281828)*float64(optF)-1e-9 {
				t.Fatalf("seed %d k %d: greedy %d < (1-1/e)*opt %d", seed, k, got, optF)
			}
		}
	}
}

func TestGreedyCoversEverythingEventually(t *testing.T) {
	g := randGraph(60, 120, 3)
	b, err := GreedyMCB(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := coverage.F(g, b); got != 60 {
		t.Fatalf("full-budget greedy covered %d of 60", got)
	}
	// And it must stop early rather than return zero-gain brokers.
	if len(b) == 60 {
		t.Fatalf("greedy did not stop at complete coverage (returned all %d nodes)", len(b))
	}
}

func TestCoreSize(t *testing.T) {
	tests := []struct{ k, beta, want int }{
		{10, 4, 5},  // ceil(4/2)=2: x+(x-1) <= 10 -> x=5
		{10, 1, 10}, // ceil(1/2)=1: no stitch cost
		{1, 4, 1},
		{7, 6, 3}, // c=3: x+2(x-1)<=7 -> 3x<=9 -> x=3
		{100, 4, 50},
	}
	for _, tc := range tests {
		if got := CoreSize(tc.k, tc.beta); got != tc.want {
			t.Errorf("CoreSize(%d,%d) = %d, want %d", tc.k, tc.beta, got, tc.want)
		}
		// The defining inequality must hold.
		c := (tc.beta + 1) / 2
		x := CoreSize(tc.k, tc.beta)
		if x+(x-1)*(c-1) > tc.k {
			t.Errorf("CoreSize(%d,%d)=%d violates budget", tc.k, tc.beta, x)
		}
	}
}

func TestApproxMCBGSatisfiesConstraint(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randGraph(80, 200, seed)
		res, err := ApproxMCBG(g, 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Brokers) > 12 {
			t.Fatalf("seed %d: |B| = %d > k = 12", seed, len(res.Brokers))
		}
		// All core brokers within one component must share a dominated
		// component (dominating paths exist).
		d := coverage.NewDominated(g, res.Brokers)
		comp, _ := d.Components()
		gcomp, _ := g.Components()
		var ref int32 = graph.Unreached
		for _, b := range res.Core {
			if gcomp[b] != gcomp[res.Root] {
				continue // unreachable from root in G itself
			}
			if ref == graph.Unreached {
				ref = comp[b]
				continue
			}
			if comp[b] != ref {
				t.Fatalf("seed %d: core brokers %v not joined by dominating paths", seed, res.Core)
			}
		}
	}
}

func TestApproxMCBGAdaptiveUsesBudget(t *testing.T) {
	top := internetGraph(t, 0.02)
	g := top.Graph
	k := 60
	plain, err := ApproxMCBG(g, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := ApproxMCBGAdaptive(g, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Brokers) > k {
		t.Fatalf("adaptive |B| = %d > k = %d", len(adaptive.Brokers), k)
	}
	if len(adaptive.Brokers) < len(plain.Brokers) {
		t.Fatalf("adaptive (%d) smaller than guaranteed core (%d)", len(adaptive.Brokers), len(plain.Brokers))
	}
	cPlain := coverage.SaturatedConnectivity(g, plain.Brokers)
	cAdaptive := coverage.SaturatedConnectivity(g, adaptive.Brokers)
	if cAdaptive+1e-9 < cPlain {
		t.Fatalf("adaptive connectivity %f < plain %f", cAdaptive, cPlain)
	}
	// The MCBG constraint must hold on the dominated giant component: all
	// covered nodes in the root's graph component share one dominated
	// component.
	if !mcbgHoldsOnRootComponent(g, adaptive) {
		t.Fatal("adaptive result violates dominating-path constraint on root component")
	}
}

func mcbgHoldsOnRootComponent(g *graph.Graph, res *ApproxResult) bool {
	gcomp, _ := g.Components()
	d := coverage.NewDominated(g, res.Brokers)
	comp, _ := d.Components()
	st := coverage.NewState(g)
	for _, b := range res.Brokers {
		st.Add(int(b))
	}
	var ref int32 = graph.Unreached
	for u := 0; u < g.NumNodes(); u++ {
		if !st.IsCovered(u) || gcomp[u] != gcomp[res.Root] {
			continue
		}
		if comp[u] == graph.Unreached {
			return false
		}
		if ref == graph.Unreached {
			ref = comp[u]
		} else if comp[u] != ref {
			return false
		}
	}
	return true
}

func TestApproxMCBGBadInput(t *testing.T) {
	g := star(t, 4)
	if _, err := ApproxMCBG(g, 2, 0); err == nil {
		t.Error("beta=0 accepted")
	}
	if _, err := ApproxMCBG(g, 0, 4); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ApproxMCBGAdaptive(g, 0, 4); err == nil {
		t.Error("adaptive k=0 accepted")
	}
	if _, err := ApproxMCBGAdaptive(g, 2, -1); err == nil {
		t.Error("adaptive beta=-1 accepted")
	}
}

func TestMaxSGMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randGraph(100, 300, seed)
		fast, err := MaxSG(g, 12)
		if err != nil {
			t.Fatal(err)
		}
		ref := maxSGReference(g, 12)
		if len(fast) != len(ref) {
			t.Fatalf("seed %d: lazy MaxSG %d brokers, reference %d: %v vs %v", seed, len(fast), len(ref), fast, ref)
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: MaxSG order differs at %d: %v vs %v", seed, i, fast, ref)
			}
		}
	}
}

func TestMaxSGKeepsBrokersConnected(t *testing.T) {
	top := internetGraph(t, 0.02)
	g := top.Graph
	brokers, err := MaxSG(g, 40)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, g.NumNodes())
	for _, b := range brokers {
		mask[b] = true
	}
	sub, _, _ := g.InducedSubgraph(mask)
	if _, sizes := sub.Components(); len(sizes) != 1 {
		t.Fatalf("MaxSG broker set induces %d components, want 1", len(sizes))
	}
}

func TestMaxSGSatisfiesMCBGConstraint(t *testing.T) {
	// Because B stays connected, all covered pairs have dominating paths.
	g := randGraph(60, 150, 4)
	brokers, err := MaxSG(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesMCBG(g, brokers) {
		t.Fatal("MaxSG output violates MCBG dominating-path constraint")
	}
}

func TestMaxSGCompleteDominatesGiant(t *testing.T) {
	top := internetGraph(t, 0.02)
	g := top.Graph
	brokers, err := MaxSGComplete(g)
	if err != nil {
		t.Fatal(err)
	}
	member, size := g.GiantComponent()
	st := coverage.NewState(g)
	for _, b := range brokers {
		st.Add(int(b))
	}
	covered := 0
	for u := 0; u < g.NumNodes(); u++ {
		if member[u] && st.IsCovered(u) {
			covered++
		}
	}
	if covered != size {
		t.Fatalf("MaxSGComplete covered %d of giant component %d", covered, size)
	}
	// And the saturated connectivity equals (giant/n)^2-ish: every pair
	// inside the giant component is served.
	conn := coverage.SaturatedConnectivity(g, brokers)
	want := float64(graph.PairsWithin([]int{size})) / float64(graph.TotalPairs(g.NumNodes()))
	if conn < want-1e-9 {
		t.Fatalf("connectivity %f < giant-pair fraction %f", conn, want)
	}
}

func TestSetCoverIsDominatingSet(t *testing.T) {
	f := func(seed int64) bool {
		g := randGraph(50, 120, seed)
		b := SetCover(g, rand.New(rand.NewSource(seed)))
		return coverage.F(g, b) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSetCoverNilRngDeterministic(t *testing.T) {
	g := randGraph(40, 80, 2)
	a := SetCover(g, nil)
	b := SetCover(g, nil)
	if len(a) != len(b) {
		t.Fatalf("nil-rng SetCover not deterministic: %d vs %d", len(a), len(b))
	}
}

func TestDegreeBased(t *testing.T) {
	g := star(t, 6)
	b, err := DegreeBased(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("DB top pick = %d, want hub 0", b[0])
	}
	if len(b) != 2 {
		t.Fatalf("DB size = %d, want 2", len(b))
	}
	// k larger than n clamps.
	b, err = DegreeBased(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 6 {
		t.Fatalf("DB clamp size = %d, want 6", len(b))
	}
}

func TestPageRankBased(t *testing.T) {
	g := star(t, 6)
	b, err := PageRankBased(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("PRB = %v, want [0]", b)
	}
	if _, err := PageRankBased(g, 0); err == nil {
		t.Error("PRB k=0 accepted")
	}
}

func TestIXPBasedAndTier1Only(t *testing.T) {
	top := internetGraph(t, 0.02)
	g := top.Graph
	all, err := IXPBased(g, top.IXPMask(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != top.NumIXPs() {
		t.Fatalf("IXPB(0) = %d brokers, want %d IXPs", len(all), top.NumIXPs())
	}
	// Pick a threshold strictly above the smallest IXP degree so the
	// filter provably removes something.
	minDeg, maxDeg := g.NumNodes(), 0
	for _, b := range all {
		if d := g.Degree(int(b)); d < minDeg {
			minDeg = d
		}
		if d := g.Degree(int(b)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > minDeg {
		big, err := IXPBased(g, top.IXPMask(), maxDeg)
		if err != nil {
			t.Fatal(err)
		}
		if len(big) >= len(all) || len(big) == 0 {
			t.Fatalf("degree threshold %d kept %d of %d IXPs", maxDeg, len(big), len(all))
		}
		for _, b := range big {
			if g.Degree(int(b)) < maxDeg {
				t.Fatalf("IXPB returned degree-%d broker under threshold", g.Degree(int(b)))
			}
		}
	}
	t1, err := Tier1Only(g, top.Tier)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) == 0 {
		t.Fatal("no tier-1 brokers found")
	}
	for _, b := range t1 {
		if top.Tier[b] != 1 {
			t.Fatalf("Tier1Only returned tier-%d node", top.Tier[b])
		}
	}
	if _, err := IXPBased(g, []bool{true}, 0); err == nil {
		t.Error("IXPB accepted wrong mask length")
	}
	if _, err := Tier1Only(g, []uint8{1}); err == nil {
		t.Error("Tier1Only accepted wrong tier length")
	}
}

func TestIsPathDominatingSet(t *testing.T) {
	g := path(t, 5)
	if !IsPathDominatingSet(g, []int32{1, 3}) {
		t.Error("{1,3} rejected on path of 5")
	}
	if IsPathDominatingSet(g, []int32{1}) {
		t.Error("{1} accepted on path of 5")
	}
	if IsPathDominatingSet(g, nil) {
		t.Error("empty set accepted")
	}
	single := graph.NewBuilder(1).MustBuild()
	if !IsPathDominatingSet(single, []int32{0}) {
		t.Error("single-node graph with itself as broker rejected")
	}
	if IsPathDominatingSet(graph.NewBuilder(0).MustBuild(), nil) {
		t.Error("empty graph accepted")
	}
}

func TestSatisfiesMCBG(t *testing.T) {
	g := path(t, 7)
	// {1,5}: two dominated islands -> constraint violated.
	if SatisfiesMCBG(g, []int32{1, 5}) {
		t.Error("{1,5} accepted despite split dominated components")
	}
	// {1,3,5}: everything joined.
	if !SatisfiesMCBG(g, []int32{1, 3, 5}) {
		t.Error("{1,3,5} rejected")
	}
}

func TestExactMinPDSOnPath(t *testing.T) {
	// Path of 5: {1,3} is a minimum PDS (size 2).
	g := path(t, 5)
	b := ExactMinPDS(g, 5)
	if len(b) != 2 {
		t.Fatalf("min PDS = %v, want size 2", b)
	}
	if !IsPathDominatingSet(g, b) {
		t.Fatalf("ExactMinPDS returned non-PDS %v", b)
	}
	// No PDS of size <= maxK.
	if b := ExactMinPDS(path(t, 9), 2); b != nil {
		t.Fatalf("found impossible PDS %v", b)
	}
}

func TestTheorem1PDSSolvesMCBG(t *testing.T) {
	// Theorem 1: a PDS solution is an MCBG solution with full coverage.
	g := path(t, 5)
	pds := ExactMinPDS(g, 3)
	if pds == nil {
		t.Fatal("no PDS found")
	}
	exact, f := ExactMCBG(g, len(pds))
	if f != g.NumNodes() {
		t.Fatalf("MCBG optimum f = %d, want full coverage %d", f, g.NumNodes())
	}
	if !SatisfiesMCBG(g, exact) {
		t.Fatal("ExactMCBG returned constraint-violating set")
	}
}

func TestExactMCBGRespectsConstraint(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randGraph(10, 14, seed)
		b, f := ExactMCBG(g, 3)
		if b == nil {
			t.Fatalf("seed %d: no MCBG solution found", seed)
		}
		if !SatisfiesMCBG(g, b) {
			t.Fatalf("seed %d: returned set violates constraint", seed)
		}
		if coverage.F(g, b) != f {
			t.Fatalf("seed %d: reported f mismatch", seed)
		}
	}
}

// MaxSG on small graphs should be near the exact MCBG optimum.
func TestMaxSGNearOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randGraph(12, 20, seed)
		k := 3
		heur, err := MaxSG(g, k)
		if err != nil {
			t.Fatal(err)
		}
		_, optF := ExactMCBG(g, k)
		got := coverage.F(g, heur)
		if float64(got) < 0.6*float64(optF) {
			t.Fatalf("seed %d: MaxSG f=%d far below optimum %d", seed, got, optF)
		}
	}
}

func TestMaxSGBadInput(t *testing.T) {
	if _, err := MaxSG(star(t, 3), 0); err == nil {
		t.Error("MaxSG k=0 accepted")
	}
	if _, err := MaxSGComplete(graph.NewBuilder(0).MustBuild()); err == nil {
		t.Error("MaxSGComplete empty graph accepted")
	}
}

// Headline sanity: on the Internet-like topology, the paper's ordering of
// algorithms by connectivity at equal budget must hold:
// MaxSG/Approx > DB/PRB > IXPB/Tier1.
func TestAlgorithmOrderingOnInternetTopology(t *testing.T) {
	top := internetGraph(t, 0.05)
	g := top.Graph
	k := 50 // ~1.9% of 2,600 nodes

	maxsg, err := MaxSG(g, k)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DegreeBased(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ixpb, err := IXPBased(g, top.IXPMask(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Tier1Only(g, top.Tier)
	if err != nil {
		t.Fatal(err)
	}

	cMaxSG := coverage.SaturatedConnectivity(g, maxsg)
	cDB := coverage.SaturatedConnectivity(g, db)
	cIXPB := coverage.SaturatedConnectivity(g, ixpb)
	cT1 := coverage.SaturatedConnectivity(g, t1)

	if cMaxSG < cDB-0.05 {
		t.Errorf("MaxSG %.3f should be >= DB %.3f (within noise)", cMaxSG, cDB)
	}
	if cDB <= cIXPB {
		t.Errorf("DB %.3f should beat IXPB %.3f", cDB, cIXPB)
	}
	if cIXPB <= cT1 {
		t.Errorf("IXPB %.3f should beat Tier1Only %.3f (%d tier-1 nodes)", cIXPB, cT1, len(t1))
	}
}

// seededRng builds a deterministic rand.Rand for curve comparisons.
func seededRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
