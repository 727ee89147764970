package graph

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int32{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Has(i) {
			t.Fatalf("fresh bitset has bit %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := b.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if !b.TestAndSet(50) {
		t.Fatal("TestAndSet on clear bit returned false")
	}
	if b.TestAndSet(50) {
		t.Fatal("TestAndSet on set bit returned true")
	}
	b.Clear(63)
	if b.Has(63) {
		t.Fatal("Clear failed")
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	want := []int32{0, 1, 50, 64, 65, 127, 128, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach yielded %v, want %v", got, want)
		}
	}
	app := b.AppendBits(nil)
	for i := range app {
		if app[i] != want[i] {
			t.Fatalf("AppendBits yielded %v, want %v", app, want)
		}
	}
}

func TestBitsetClaimNew(t *testing.T) {
	visited := NewBitset(200)
	cand := NewBitset(200)
	dst := NewBitset(200)
	visited.SetAll([]int32{3, 70, 140})
	cand.SetAll([]int32{3, 4, 70, 71, 199})
	if got := visited.ClaimNew(cand, dst); got != 3 {
		t.Fatalf("claimed %d, want 3", got)
	}
	for _, i := range []int32{4, 71, 199} {
		if !dst.Has(i) || !visited.Has(i) {
			t.Fatalf("bit %d not claimed", i)
		}
	}
	if dst.Has(3) || dst.Has(70) {
		t.Fatal("already-visited bit claimed")
	}
}

// TestBitBFSMatchesReference checks the bit-packed kernel against the
// queue-based BFS on random graphs, covering both the top-down and
// bottom-up regimes (dense graphs force large frontiers).
func TestBitBFSMatchesReference(t *testing.T) {
	cases := []struct{ n, m int }{
		{10, 8}, {100, 80}, {100, 600}, {1000, 900}, {1000, 8000}, {513, 4000},
	}
	for _, tc := range cases {
		g := randomGraph(tc.n, tc.m, int64(tc.n)*31+int64(tc.m))
		ref := NewBFS(g)
		kern := NewBitBFS(g)
		for _, src := range []int{0, tc.n / 2, tc.n - 1} {
			wantReached := ref.Run(src)
			kern.Reset()
			gotReached := kern.Flood([]int32{int32(src)})
			if gotReached != wantReached {
				t.Fatalf("n=%d m=%d src=%d: Flood reached %d, reference %d",
					tc.n, tc.m, src, gotReached, wantReached)
			}
			for u := 0; u < tc.n; u++ {
				if kern.Visited().Has(int32(u)) != (ref.Dist()[u] != Unreached) {
					t.Fatalf("n=%d m=%d src=%d: node %d visited mismatch", tc.n, tc.m, src, u)
				}
			}
		}
		// Multi-source agreement.
		srcs := []int32{0, int32(tc.n / 3), int32(2 * tc.n / 3)}
		wantReached := ref.RunMultiSource(srcs)
		kern.Reset()
		if got := kern.Flood(srcs); got != wantReached {
			t.Fatalf("n=%d m=%d: multi-source Flood reached %d, reference %d", tc.n, tc.m, got, wantReached)
		}
	}
}

// TestBitBFSDominated checks the dominated-edge mode against the filtered
// reference BFS.
func TestBitBFSDominated(t *testing.T) {
	g := randomGraph(400, 2000, 7)
	rng := rand.New(rand.NewSource(8))
	inB := NewBitset(g.NumNodes())
	var brokers []int32
	for u := 0; u < g.NumNodes(); u++ {
		if rng.Float64() < 0.1 {
			inB.Set(int32(u))
			brokers = append(brokers, int32(u))
		}
	}
	allow := func(u, v int32) bool { return inB.Has(u) || inB.Has(v) }
	ref := NewBFS(g)
	kern := NewBitBFS(g)
	for _, src := range []int{0, 100, 399} {
		want := ref.RunBoundedFiltered(src, 1<<30, allow)
		kern.Reset()
		got := kern.FloodDominated([]int32{int32(src)}, inB)
		if got != want {
			t.Fatalf("src %d: dominated flood reached %d, reference %d", src, got, want)
		}
		for u := 0; u < g.NumNodes(); u++ {
			if kern.Visited().Has(int32(u)) != (ref.Dist()[u] != Unreached) {
				t.Fatalf("src %d: node %d dominated-visited mismatch", src, u)
			}
		}
	}
	_ = brokers
}

// TestBitBFSComponentEnumeration drives repeated Flood calls without Reset
// to enumerate components, as coverage.Dominated does.
func TestBitBFSComponentEnumeration(t *testing.T) {
	// Three disjoint paths: 0-1-2, 3-4, 5.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	kern := NewBitBFS(g)
	var sizes []int
	for u := 0; u < 6; u++ {
		if kern.Visited().Has(int32(u)) {
			continue
		}
		var members []int32
		n := kern.FloodFunc([]int32{int32(u)}, nil, func(v int32) { members = append(members, v) })
		if n != len(members) {
			t.Fatalf("component from %d: reached %d but visited %d nodes", u, n, len(members))
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	want := []int{1, 2, 3}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("component sizes %v, want %v", sizes, want)
		}
	}
}

// TestBitBFSZeroAlloc pins the zero-allocation contract of the kernels:
// after construction, Flood and FloodDominated must not allocate.
func TestBitBFSZeroAlloc(t *testing.T) {
	g := randomGraph(2000, 10000, 3)
	kern := NewBitBFS(g)
	inB := NewBitset(g.NumNodes())
	for u := 0; u < 200; u++ {
		inB.Set(int32(u * 7 % 2000))
	}
	srcs := []int32{0}
	// Warm up so the frontier list reaches its high-water capacity.
	kern.Reset()
	kern.Flood(srcs)
	if avg := testing.AllocsPerRun(20, func() {
		kern.Reset()
		kern.Flood(srcs)
	}); avg != 0 {
		t.Fatalf("Flood allocates %.1f per run, want 0", avg)
	}
	kern.Reset()
	kern.FloodDominated(srcs, inB)
	if avg := testing.AllocsPerRun(20, func() {
		kern.Reset()
		kern.FloodDominated(srcs, inB)
	}); avg != 0 {
		t.Fatalf("FloodDominated allocates %.1f per run, want 0", avg)
	}
}

// RunMultiSource performs a BFS from every node in srcs simultaneously
// (distance 0 at each source) and returns the number of reached nodes: the
// reference the bit-parallel flood is tested against.
func (b *BFS) RunMultiSource(srcs []int32) int {
	b.reset()
	for _, s := range srcs {
		if b.dist[s] == Unreached {
			b.dist[s] = 0
			b.touched = append(b.touched, s)
			b.queue = append(b.queue, s)
		}
	}
	reached := len(b.queue)
	for head := 0; head < len(b.queue); head++ {
		u := b.queue[head]
		du := b.dist[u]
		for _, v := range b.g.Neighbors(int(u)) {
			if b.dist[v] != Unreached {
				continue
			}
			b.dist[v] = du + 1
			b.touched = append(b.touched, v)
			b.queue = append(b.queue, v)
			reached++
		}
	}
	return reached
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}
