package topology

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"brokerset/internal/graph"
)

func genTest(t *testing.T, scale float64, seed int64) *Topology {
	t.Helper()
	top, err := GenerateInternet(InternetConfig{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatalf("GenerateInternet: %v", err)
	}
	return top
}

func TestClassAndRelRoundTripStrings(t *testing.T) {
	for c := ClassUnknown; c <= ClassIXP; c++ {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("ParseClass(%q) = %v, want %v", c.String(), got, c)
		}
	}
	for r := RelNone; r <= RelMember; r++ {
		got, err := ParseRelationship(r.String())
		if err != nil {
			t.Fatalf("ParseRelationship(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("ParseRelationship(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass accepted bogus name")
	}
	if _, err := ParseRelationship("bogus"); err == nil {
		t.Error("ParseRelationship accepted bogus name")
	}
}

func TestRelPerspective(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(3, 7)
	b.AddEdge(9, 2)
	b.AddEdge(1, 2)
	top := &Topology{Graph: b.MustBuild()}
	top.SetRel(3, 7, RelCustomer) // 3 buys transit from 7
	if got := top.Rel(3, 7); got != RelCustomer {
		t.Errorf("Rel(3,7) = %v, want c2p", got)
	}
	if got := top.Rel(7, 3); got != RelProvider {
		t.Errorf("Rel(7,3) = %v, want p2c", got)
	}
	// Setting from the higher-id side must invert consistently.
	top.SetRel(9, 2, RelCustomer) // 9 buys from 2
	if got := top.Rel(2, 9); got != RelProvider {
		t.Errorf("Rel(2,9) = %v, want p2c", got)
	}
	if got := top.Rel(1, 2); got != RelNone {
		t.Errorf("Rel on unlabeled edge = %v, want none", got)
	}
	// A label is a property of an edge: a non-edge takes none.
	top.SetRel(4, 5, RelPeer)
	if got := top.Rel(4, 5); got != RelNone {
		t.Errorf("Rel on a non-edge = %v, want none", got)
	}
	// Both arcs of every labelled edge are written, the reverse inverted.
	rels := top.ArcRels()
	for u := 0; u < top.NumNodes(); u++ {
		for i, v := range top.Graph.Neighbors(u) {
			if got, want := rels[top.Graph.ArcOffset(u)+i], top.Rel(int(v), u).invert(); got != want {
				t.Errorf("arc %d->%d = %v, reverse arc inverted = %v", u, v, got, want)
			}
		}
	}
}

// TestBuiltRelsMatchSetRel: the relationship column the graph build carries
// out (addRel, build) is the one SetRel writes one searched edge at a time,
// on edges that repeat with different relationships either way round and on
// self-loops.
func TestBuiltRelsMatchSetRel(t *testing.T) {
	type labelled struct {
		u, v int
		rel  Relationship
	}
	rng := rand.New(rand.NewSource(6))
	rels := []Relationship{RelNone, RelPeer, RelCustomer, RelProvider, RelMember}
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n)
		var edges []labelled
		for i := rng.Intn(5 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			for r := 1 + rng.Intn(3); r > 0; r-- {
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
				e := labelled{u, v, rels[rng.Intn(len(rels))]}
				addRel(b, e.u, e.v, e.rel)
				edges = append(edges, e)
			}
		}
		got := &Topology{}
		if err := got.build(b); err != nil {
			t.Fatal(err)
		}
		want := &Topology{Graph: got.Graph}
		for _, e := range edges {
			want.SetRel(e.u, e.v, e.rel)
		}
		if !slices.Equal(got.ArcRels(), want.ArcRels()) {
			t.Fatalf("trial %d: edges %v\n got %v\nwant %v", trial, edges, got.ArcRels(), want.ArcRels())
		}
	}
}

func TestGenerateInternetBadScale(t *testing.T) {
	if _, err := GenerateInternet(InternetConfig{Scale: 0}); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := GenerateInternet(InternetConfig{Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestGenerateInternetDeterministic(t *testing.T) {
	a := genTest(t, 0.02, 7)
	b := genTest(t, 0.02, 7)
	if a.NumNodes() != b.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("same seed differs: (%d,%d) vs (%d,%d)",
			a.NumNodes(), a.Graph.NumEdges(), b.NumNodes(), b.Graph.NumEdges())
	}
	c := genTest(t, 0.02, 8)
	if a.Graph.NumEdges() == c.Graph.NumEdges() {
		t.Logf("warning: different seeds gave identical edge count (possible but unlikely)")
	}
}

func TestGenerateInternetCalibration(t *testing.T) {
	const scale = 0.05
	top := genTest(t, scale, 1)
	st := top.ComputeStats()

	wantASes := int(math.Round(fullASes * scale))
	if delta := math.Abs(float64(st.ASes-wantASes)) / float64(wantASes); delta > 0.01 {
		t.Errorf("ASes = %d, want ~%d", st.ASes, wantASes)
	}
	wantIXPs := int(math.Round(fullIXPs * scale))
	if st.IXPs != wantIXPs {
		t.Errorf("IXPs = %d, want %d", st.IXPs, wantIXPs)
	}
	wantASAS := int(math.Round(fullASASEdges * scale))
	if delta := math.Abs(float64(st.ASASEdges-wantASAS)) / float64(wantASAS); delta > 0.05 {
		t.Errorf("AS-AS edges = %d, want within 5%% of %d", st.ASASEdges, wantASAS)
	}
	wantMem := int(math.Round(fullIXPMemberships * scale))
	if delta := math.Abs(float64(st.IXPASEdges-wantMem)) / float64(wantMem); delta > 0.15 {
		t.Errorf("IXP-AS edges = %d, want within 15%% of %d", st.IXPASEdges, wantMem)
	}

	// Giant component covers nearly everything but not everything
	// (paper: 51,895 of 52,079).
	frac := float64(st.GiantComponent) / float64(top.NumNodes())
	if frac < 0.98 || frac == 1.0 {
		t.Errorf("giant component fraction = %f, want in [0.98, 1)", frac)
	}

	// ~40% of ASes touch an IXP.
	atIXP := 0
	for u := 0; u < top.NumNodes(); u++ {
		if top.IsIXP(u) {
			continue
		}
		for _, v := range top.Graph.Neighbors(u) {
			if top.IsIXP(int(v)) {
				atIXP++
				break
			}
		}
	}
	gotFrac := float64(atIXP) / float64(st.ASes)
	if gotFrac < 0.30 || gotFrac > 0.50 {
		t.Errorf("fraction of ASes at IXPs = %f, want ~0.40", gotFrac)
	}
}

func TestGenerateInternetAlphaBetaProperty(t *testing.T) {
	top := genTest(t, 0.05, 1)
	// The paper's topology is a (0.99, 4)-graph. The synthetic topology
	// must satisfy the same small-world property.
	alpha := top.Graph.AlphaForBeta(4, 300, nil)
	if alpha < 0.97 {
		t.Errorf("AlphaForBeta(4) = %f, want >= 0.97 ((0.99,4)-graph calibration)", alpha)
	}
}

func TestGenerateInternetScaleFree(t *testing.T) {
	top := genTest(t, 0.05, 1)
	maxDeg := top.Graph.Degree(top.Graph.MaxDegreeNode())
	// A scale-free graph at n≈2600 should have hubs with degree well over
	// 20x the average.
	if avg := top.Graph.AvgDegree(); float64(maxDeg) < 20*avg {
		t.Errorf("max degree %d < 20x avg %f: degree distribution not heavy-tailed", maxDeg, avg)
	}
}

func TestGenerateInternetRelLabels(t *testing.T) {
	top := genTest(t, 0.02, 1)
	counts := map[Relationship]int{}
	bad := 0
	top.Graph.Edges(func(u, v int) bool {
		r := top.Rel(u, v)
		counts[r]++
		if r == RelNone {
			bad++
		}
		// Member edges must touch exactly one IXP; others none.
		ixps := 0
		if top.IsIXP(u) {
			ixps++
		}
		if top.IsIXP(v) {
			ixps++
		}
		if (r == RelMember) != (ixps == 1) || ixps == 2 {
			t.Fatalf("edge (%d,%d) rel %v with %d IXP endpoints", u, v, r, ixps)
		}
		return true
	})
	if bad > 0 {
		t.Errorf("%d unlabeled edges", bad)
	}
	if counts[RelCustomer]+counts[RelProvider] == 0 {
		t.Error("no customer-provider edges generated")
	}
	if counts[RelPeer] == 0 {
		t.Error("no peering edges generated")
	}
}

func TestWithoutIXPs(t *testing.T) {
	top := genTest(t, 0.02, 1)
	noix, orig := top.WithoutIXPs()
	if noix.NumIXPs() != 0 {
		t.Fatalf("WithoutIXPs left %d IXPs", noix.NumIXPs())
	}
	if noix.NumNodes() != top.NumASes() {
		t.Fatalf("WithoutIXPs nodes = %d, want %d", noix.NumNodes(), top.NumASes())
	}
	checkRelsCarriedOver(t, top, noix, orig)
}

// checkRelsCarriedOver asserts that every arc of sub, a topology induced on
// a subset of top's nodes, carries the label of the arc it came from.
func checkRelsCarriedOver(t *testing.T, top, sub *Topology, orig []int32) {
	t.Helper()
	rels := sub.ArcRels()
	if len(rels) != sub.Graph.NumArcs() {
		t.Fatalf("relationship column has %d entries for %d arcs", len(rels), sub.Graph.NumArcs())
	}
	for u := 0; u < sub.NumNodes(); u++ {
		for i, v := range sub.Graph.Neighbors(u) {
			want := top.Rel(int(orig[u]), int(orig[v]))
			if got := rels[sub.Graph.ArcOffset(u)+i]; got != want || sub.Rel(u, int(v)) != want {
				t.Fatalf("arc %d->%d: column %v, Rel %v, parent %v", u, v, got, sub.Rel(u, int(v)), want)
			}
		}
	}
}

func TestClassHistogram(t *testing.T) {
	top := genTest(t, 0.02, 1)
	h := top.ClassHistogram(nil)
	total := 0
	for _, c := range h {
		total += c
	}
	if total != top.NumNodes() {
		t.Fatalf("histogram total %d != %d nodes", total, top.NumNodes())
	}
	if h[ClassTier1] == 0 || h[ClassIXP] == 0 || h[ClassEnterprise] == 0 {
		t.Errorf("missing expected classes: %v", h)
	}
	sub := top.ClassHistogram([]int32{0})
	if sub[top.Class[0]] != 1 {
		t.Errorf("restricted histogram = %v", sub)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	top := genTest(t, 0.01, 3)
	var buf bytes.Buffer
	if err := top.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumNodes() != top.NumNodes() {
		t.Fatalf("nodes = %d, want %d", got.NumNodes(), top.NumNodes())
	}
	if got.Graph.NumEdges() != top.Graph.NumEdges() {
		t.Fatalf("edges = %d, want %d", got.Graph.NumEdges(), top.Graph.NumEdges())
	}
	for u := 0; u < top.NumNodes(); u++ {
		if got.Class[u] != top.Class[u] || got.Tier[u] != top.Tier[u] || got.Name[u] != top.Name[u] {
			t.Fatalf("node %d labels differ: (%v,%d,%q) vs (%v,%d,%q)",
				u, got.Class[u], got.Tier[u], got.Name[u], top.Class[u], top.Tier[u], top.Name[u])
		}
	}
	mismatches := 0
	top.Graph.Edges(func(u, v int) bool {
		if got.Rel(u, v) != top.Rel(u, v) {
			mismatches++
		}
		return true
	})
	if mismatches > 0 {
		t.Fatalf("%d relationship mismatches after round trip", mismatches)
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no header":      "nodes 3\nedge 0 1 p2p\n",
		"bad node id":    formatHeader + "\nnodes 2\nnode 5 tier1 1 X\n",
		"bad class":      formatHeader + "\nnodes 2\nnode 0 wat 1 X\n",
		"bad edge":       formatHeader + "\nnodes 2\nedge 0 nine p2p\n",
		"edge oob":       formatHeader + "\nnodes 2\nedge 0 7 p2p\n",
		"bad directive":  formatHeader + "\nnodes 2\nfrob 1 2\n",
		"bad rel":        formatHeader + "\nnodes 2\nedge 0 1 wat\n",
		"negative nodes": formatHeader + "\nnodes -4\n",
	}
	for name, input := range cases {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted malformed input", name)
		}
	}
}

func TestLoadDefaults(t *testing.T) {
	in := formatHeader + "\nnodes 3\nedge 0 1\nedge 1 2 c2p\n"
	top, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if top.Rel(0, 1) != RelPeer {
		t.Errorf("default rel = %v, want p2p", top.Rel(0, 1))
	}
	if top.Rel(1, 2) != RelCustomer {
		t.Errorf("rel(1,2) = %v, want c2p", top.Rel(1, 2))
	}
	if top.Class[0] != ClassEnterprise || top.Tier[0] != 3 {
		t.Errorf("default node labels = %v tier %d", top.Class[0], top.Tier[0])
	}
	// An edge listed twice keeps its last label, whichever way round.
	top, err = Load(strings.NewReader(formatHeader + "\nnodes 2\nedge 0 1 p2p\nedge 1 0 c2p\n"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if top.Rel(1, 0) != RelCustomer || top.Rel(0, 1) != RelProvider {
		t.Errorf("relisted edge: rel(1,0) = %v, rel(0,1) = %v, want c2p/p2c", top.Rel(1, 0), top.Rel(0, 1))
	}
}

func TestGenerateER(t *testing.T) {
	top, err := GenerateER(100, 300, 1)
	if err != nil {
		t.Fatalf("GenerateER: %v", err)
	}
	if top.Graph.NumEdges() != 300 {
		t.Fatalf("edges = %d, want 300", top.Graph.NumEdges())
	}
	if _, err := GenerateER(1, 0, 1); err == nil {
		t.Error("ER accepted n=1")
	}
	if _, err := GenerateER(4, 100, 1); err == nil {
		t.Error("ER accepted m > max")
	}
}

func TestGenerateWS(t *testing.T) {
	top, err := GenerateWS(100, 6, 0.1, 1)
	if err != nil {
		t.Fatalf("GenerateWS: %v", err)
	}
	// Ring lattice yields ~n*k/2 edges; rewiring preserves the count
	// approximately (collisions may drop a few).
	if e := top.Graph.NumEdges(); e < 280 || e > 300 {
		t.Fatalf("edges = %d, want ~300", e)
	}
	// Small world: giant component spans everything at p=0.1.
	if _, size := top.Graph.GiantComponent(); size != 100 {
		t.Errorf("giant component = %d, want 100", size)
	}
	for _, bad := range []struct {
		n, k int
		p    float64
	}{
		{3, 2, 0.1}, {10, 3, 0.1}, {10, 12, 0.1}, {10, 4, 1.5},
	} {
		if _, err := GenerateWS(bad.n, bad.k, bad.p, 1); err == nil {
			t.Errorf("WS accepted n=%d k=%d p=%f", bad.n, bad.k, bad.p)
		}
	}
}

func TestGenerateBA(t *testing.T) {
	top, err := GenerateBA(500, 3, 1)
	if err != nil {
		t.Fatalf("GenerateBA: %v", err)
	}
	if _, size := top.Graph.GiantComponent(); size != 500 {
		t.Errorf("BA giant component = %d, want 500", size)
	}
	maxDeg := top.Graph.Degree(top.Graph.MaxDegreeNode())
	if float64(maxDeg) < 5*top.Graph.AvgDegree() {
		t.Errorf("BA max degree %d not heavy-tailed (avg %f)", maxDeg, top.Graph.AvgDegree())
	}
	if _, err := GenerateBA(5, 7, 1); err == nil {
		t.Error("BA accepted m >= n")
	}
}

func TestComputeStatsTotals(t *testing.T) {
	top := genTest(t, 0.02, 1)
	st := top.ComputeStats()
	if st.ASASEdges+st.IXPASEdges != st.TotalEdges {
		t.Fatalf("edge partition %d + %d != %d", st.ASASEdges, st.IXPASEdges, st.TotalEdges)
	}
	if st.ASes+st.IXPs != top.NumNodes() {
		t.Fatalf("node partition %d + %d != %d", st.ASes, st.IXPs, top.NumNodes())
	}
}
