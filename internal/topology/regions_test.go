package topology

import (
	"testing"

	"brokerset/internal/graph"
)

// fedTestTop builds a deterministic 3-region topology: each region has m
// ASes in a ring, all members of a high-degree anchor IXP; consecutive
// regions are bridged by a border IXP with two members on each side.
//
// Node layout: ASes [0, 3m), anchors A_r = 3m+r, borders B_r = 3m+3+r
// (bridging region r and r+1).
func fedTestTop(t *testing.T, m int) *Topology {
	t.Helper()
	nAS := 3 * m
	n := nAS + 3 + 2
	b := graph.NewBuilder(n)
	top := &Topology{
		Class: make([]Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	type edge struct{ u, v int }
	var member []edge
	as := func(r, i int) int { return r*m + i }
	for r := 0; r < 3; r++ {
		anchor := nAS + r
		top.Class[anchor] = ClassIXP
		for i := 0; i < m; i++ {
			b.AddEdge(as(r, i), as(r, (i+1)%m))
			b.AddEdge(as(r, i), anchor)
			member = append(member, edge{as(r, i), anchor})
		}
	}
	for r := 0; r < 2; r++ {
		border := nAS + 3 + r
		top.Class[border] = ClassIXP
		for _, u := range []int{as(r, 0), as(r, 1), as(r+1, 0), as(r+1, 1)} {
			b.AddEdge(u, border)
			member = append(member, edge{u, border})
		}
	}
	top.Graph = b.MustBuild()
	for i := range top.Name {
		top.Name[i] = "n"
	}
	for _, e := range member {
		top.SetRel(e.u, e.v, RelMember)
	}
	return top
}

func TestPartitionRegions(t *testing.T) {
	m := 8
	top := fedTestTop(t, m)
	p, err := PartitionRegions(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Anchors are the three degree-m IXPs (borders only have degree 4).
	nAS := 3 * m
	for r, a := range p.Anchors {
		if int(a) < nAS || int(a) >= nAS+3 {
			t.Fatalf("region %d anchored at %d, want an anchor IXP in [%d,%d)", r, a, nAS, nAS+3)
		}
	}
	// Every AS lands in the region of its anchor.
	for r := 0; r < 3; r++ {
		anchor := p.Anchors[r]
		want := p.RegionOf(anchor)
		for i := 0; i < m; i++ {
			u := int32(int(anchor-int32(nAS))*m + i)
			if p.RegionOf(u) != want {
				t.Fatalf("AS %d in region %d, want %d (anchor %d)", u, p.RegionOf(u), want, anchor)
			}
		}
	}
	// Exactly the two bridge IXPs are border IXPs, and each touches the two
	// regions it bridges.
	borders := p.BorderIXPs()
	if len(borders) != 2 {
		t.Fatalf("got %d border IXPs %v, want 2", len(borders), borders)
	}
	for _, b := range borders {
		if touched := p.Touches(b); len(touched) != 2 {
			t.Fatalf("border %d touches %v, want exactly 2 regions", b, touched)
		}
	}
	// Region adjacency follows the bridge chain 0-1-2 (0 and 2 unlinked).
	r0 := p.RegionOf(int32(0))
	r1 := p.RegionOf(int32(m))
	r2 := p.RegionOf(int32(2 * m))
	if !p.Adjacent(r0, r1) || !p.Adjacent(r1, r2) {
		t.Fatal("expected regions of consecutive AS blocks to be adjacent")
	}
	if p.Adjacent(r0, r2) {
		t.Fatal("regions 0 and 2 share no border IXP but report adjacent")
	}
}

func TestSubtopologySharesBorderIXPs(t *testing.T) {
	top := fedTestTop(t, 8)
	p, err := PartitionRegions(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	border := p.BorderIXPs()[0]
	shared := 0
	for r := 0; r < 3; r++ {
		sub, orig, _ := p.Subtopology(r)
		if sub.NumNodes() != len(orig) {
			t.Fatalf("region %d: %d nodes but %d orig entries", r, sub.NumNodes(), len(orig))
		}
		// Labels survive the id remap.
		for l, o := range orig {
			if sub.Class[l] != top.Class[o] {
				t.Fatalf("region %d node %d: class %v, want %v", r, l, sub.Class[l], top.Class[o])
			}
		}
		checkRelsCarriedOver(t, top, sub, orig)
		for _, o := range orig {
			if o == border {
				shared++
			}
		}
		// Every home member is present.
		want := make(map[int32]bool)
		for _, u := range p.Members(r) {
			want[u] = true
		}
		for _, o := range orig {
			delete(want, o)
		}
		if len(want) > 0 {
			t.Fatalf("region %d subtopology missing home nodes %v", r, want)
		}
	}
	if shared != 2 {
		t.Fatalf("border IXP %d present in %d region subtopologies, want 2", border, shared)
	}
}

func TestPartitionRegionsErrors(t *testing.T) {
	top := fedTestTop(t, 4)
	if _, err := PartitionRegions(top, 0); err == nil {
		t.Fatal("expected error for 0 regions")
	}
	if _, err := PartitionRegions(top, 99); err == nil {
		t.Fatal("expected error when regions exceed IXP count")
	}
}
