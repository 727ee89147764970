package routing

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// referenceUsable is the whole arc predicate in one place — dominated, not
// failed, and at least opts.MinBandwidth available — spelled out here so the
// oracle does not depend on how the serving loops split it.
func (s *pathSearch) referenceUsable(u, v int32, arc int, opts Options) bool {
	if !s.inB[u] && !s.inB[v] {
		return false
	}
	if s.arcs.failed.Has(int32(arc)) {
		return false
	}
	return opts.MinBandwidth <= 0 || s.arcs.availArc(arc) >= opts.MinBandwidth
}

// referenceBestPath is the one-sided Dijkstra the serving path ran before
// the bidirectional search replaced it: textbook, O(n) set-up per query,
// floods the dominated component on a no-path pair. It stays here as the
// oracle the differential tests compare bestPathUnbounded against.
func (s *pathSearch) referenceBestPath(src, dst int, opts Options) (*Path, error) {
	n := s.top.NumNodes()
	dist := make([]float64, n)
	parent := make([]int32, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = int32(src)
	pq := new(flatHeap)
	pq.push(int32(src), 0)
	for pq.len() > 0 {
		u, cost := pq.pop()
		if cost > dist[u] {
			continue
		}
		if int(u) == dst {
			break
		}
		off := s.top.Graph.ArcOffset(int(u))
		for i, v := range s.top.Graph.Neighbors(int(u)) {
			arc := off + i
			if !s.referenceUsable(u, v, arc, opts) {
				continue
			}
			if opts.BrokersOnly && int(v) != dst && !s.inB[v] {
				continue
			}
			nd := cost + s.arcs.latency[arc]*s.penaltyFactor(arc)
			if dist[v] < 0 || nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				pq.push(v, nd)
			}
		}
	}
	if parent[dst] == -1 {
		return nil, fmt.Errorf("routing: no dominated path %d -> %d within constraints", src, dst)
	}
	var rev []int32
	for u := int32(dst); ; u = parent[u] {
		rev = append(rev, u)
		if int(u) == src {
			break
		}
	}
	nodes := make([]int32, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return s.describe(nodes), nil
}

// referenceBestPathHops is the hop-bounded search the serving path ran
// before withinHops replaced it: Dijkstra over (node, hops) states held in
// maps, with a boxed container/heap frontier. It is the oracle for every
// query with MaxHops set.
func (s *pathSearch) referenceBestPathHops(src, dst int, opts Options) (*Path, error) {
	if src == dst {
		return &Path{Nodes: []int32{int32(src)}}, nil
	}
	dist := make(map[hopState]float64)
	parent := make(map[hopState]hopState)
	pq := &pathHeap{}
	start := hopState{node: int32(src), hops: 0}
	dist[start] = 0
	heap.Push(pq, pathItem{st: start, cost: 0})
	var goal *hopState
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pathItem)
		if d, ok := dist[it.st]; !ok || it.cost > d {
			continue
		}
		if int(it.st.node) == dst {
			goal = &it.st
			break
		}
		if it.st.hops == opts.MaxHops {
			continue
		}
		u := it.st.node
		off := s.top.Graph.ArcOffset(int(u))
		for i, v := range s.top.Graph.Neighbors(int(u)) {
			arc := off + i
			if !s.referenceUsable(u, v, arc, opts) {
				continue
			}
			if opts.BrokersOnly && int(v) != dst && !s.inB[v] {
				continue
			}
			ns := hopState{node: v, hops: it.st.hops + 1}
			nd := it.cost + s.arcs.latency[arc]*s.penaltyFactor(arc)
			if d, ok := dist[ns]; !ok || nd < d {
				dist[ns] = nd
				parent[ns] = it.st
				heap.Push(pq, pathItem{st: ns, cost: nd})
			}
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("routing: no dominated path %d -> %d within constraints", src, dst)
	}
	var rev []int32
	for st := *goal; ; st = parent[st] {
		rev = append(rev, st.node)
		if st == start {
			break
		}
	}
	nodes := make([]int32, len(rev))
	for i := range rev {
		nodes[i] = rev[len(rev)-1-i]
	}
	return s.describe(nodes), nil
}

// hopState is a (node, consumed-hops) state of referenceBestPathHops.
type hopState struct {
	node int32
	hops int
}

type pathItem struct {
	st   hopState
	cost float64
}

type pathHeap struct{ items []pathItem }

func (h *pathHeap) Len() int           { return len(h.items) }
func (h *pathHeap) Less(i, j int) bool { return h.items[i].cost < h.items[j].cost }
func (h *pathHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *pathHeap) Push(x any)         { h.items = append(h.items, x.(pathItem)) }
func (h *pathHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// randomTopology builds an n-node graph with about avgDeg*n/2 random peer
// links — sparse enough that the dominated subgraph falls apart into
// several components, so no-path verdicts are exercised too. With hubs > 0
// it pads the graph to 4 row chunks of nodes and appends hubs nodes, each
// linked to 3–4 chunks' worth of the nodes before it: padding nodes become
// the hubs' stubs (or bridges between two hubs), and meet reads a hub's row
// a chunk at a time. With hubs = 0 the graph, and the draws, are as before.
func randomTopology(rng *rand.Rand, n int, avgDeg float64, hubs int) *topology.Topology {
	base := n
	if hubs > 0 {
		base = max(n, 4*rowChunk)
	}
	b := graph.NewBuilder(base + hubs)
	for i := 0; i < int(avgDeg*float64(n)/2); i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(u, v)
		}
	}
	for h := base; h < base+hubs; h++ {
		for _, v := range rng.Perm(h)[:3*rowChunk+rng.Intn(rowChunk)] {
			b.AddEdge(h, v)
		}
	}
	return peerTopology(b.MustBuild())
}

// perturb puts an engine's metrics and penalty column into a state that
// exercises every per-arc input the search reads: failed links,
// reservations that MinBandwidth filters on, and KAlternatives-style
// penalties on a random subset of links.
func perturb(rng *rand.Rand, e *Engine) {
	m := e.metrics
	e.penalty = make([]float64, e.top.Graph.NumArcs())
	for a := range e.penalty {
		e.penalty[a] = 1
	}
	e.top.Graph.Edges(func(u, v int) bool {
		a, b := int32(u), int32(v)
		switch r := rng.Float64(); {
		case r < 0.08:
			m.FailLink(a, b)
		case r < 0.30:
			if err := m.Reserve(a, b, m.Available(a, b)*rng.Float64()); err != nil {
				panic(err)
			}
		case r < 0.40:
			f := float64(uint(1) << (3 * (1 + rng.Intn(3))))
			e.penalty[e.top.Graph.ArcOf(u, v)], e.penalty[e.top.Graph.ArcOf(v, u)] = f, f
		}
		return true
	})
}

// checkAgainstReference runs the search and its oracle (the hop-bounded one
// when MaxHops is set) for one query and fails on any difference the result
// contract forbids: verdict, penalised cost (which is what both minimise; it
// equals Latency when no penalty applies), the hop bound, and validity of
// every hop of the new search's path. It reports whether a path exists.
func checkAgainstReference(t testing.TB, s *pathSearch, src, dst int, opts Options) bool {
	t.Helper()
	reference := s.referenceBestPath
	if opts.MaxHops > 0 {
		reference = s.referenceBestPathHops
	}
	want, werr := reference(src, dst, opts)
	got, gerr := s.bestPath(src, dst, opts)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("(%d,%d,%+v): reference err %v, search err %v", src, dst, opts, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("(%d,%d): error text %q, want %q", src, dst, gerr, werr)
		}
		return false
	}
	if got.Nodes[0] != int32(src) || got.Nodes[len(got.Nodes)-1] != int32(dst) {
		t.Fatalf("(%d,%d): path %v does not join the endpoints", src, dst, got.Nodes)
	}
	if opts.MaxHops > 0 && got.Hops() > opts.MaxHops {
		t.Fatalf("(%d,%d): %d hops in %v, bound %d", src, dst, got.Hops(), got.Nodes, opts.MaxHops)
	}
	seen := make(map[int32]bool, len(got.Nodes))
	for i, u := range got.Nodes {
		if seen[u] {
			t.Fatalf("(%d,%d): node %d repeats in %v", src, dst, u, got.Nodes)
		}
		seen[u] = true
		if opts.BrokersOnly && i > 0 && i < len(got.Nodes)-1 && !s.inB[u] {
			t.Fatalf("(%d,%d): non-broker intermediate %d in %v", src, dst, u, got.Nodes)
		}
		if i == 0 {
			continue
		}
		prev := got.Nodes[i-1]
		arc := s.top.Graph.ArcOf(int(prev), int(u))
		if arc < 0 {
			t.Fatalf("(%d,%d): hop %d-%d of %v is not a link", src, dst, prev, u, got.Nodes)
		}
		if !s.referenceUsable(prev, u, arc, opts) {
			t.Fatalf("(%d,%d): hop %d-%d of %v is undominated, failed or too thin", src, dst, prev, u, got.Nodes)
		}
	}
	if wc, gc := s.penalisedCost(want.Nodes), s.penalisedCost(got.Nodes); math.Abs(wc-gc) > 1e-9 {
		t.Fatalf("(%d,%d,%+v): cost %.12f via %v, reference %.12f via %v", src, dst, opts, gc, got.Nodes, wc, want.Nodes)
	}
	if len(s.penalty) == 0 && math.Abs(want.Latency-got.Latency) > 1e-9 {
		t.Fatalf("(%d,%d,%+v): latency %.12f, reference %.12f", src, dst, opts, got.Latency, want.Latency)
	}
	if d := s.describe(got.Nodes); d.Latency != got.Latency || d.Bottleneck != got.Bottleneck {
		t.Fatalf("(%d,%d): path reports (%f,%f), describe says (%f,%f)", src, dst, got.Latency, got.Bottleneck, d.Latency, d.Bottleneck)
	}
	return true
}

// penalisedCost is the objective both searches minimise over a node
// sequence.
func (s *pathSearch) penalisedCost(nodes []int32) float64 {
	var c float64
	for i := 0; i+1 < len(nodes); i++ {
		arc := s.top.Graph.ArcOf(int(nodes[i]), int(nodes[i+1]))
		c += s.arcs.latency[arc] * s.penaltyFactor(arc)
	}
	return c
}

// randomOptions draws an option set covering every filter the two-sided
// search has to mirror, hop-bounded one time in three.
func randomOptions(rng *rand.Rand) Options {
	var opts Options
	if rng.Intn(2) == 0 {
		opts.MinBandwidth = rng.Float64() * 30
	}
	opts.BrokersOnly = rng.Intn(3) == 0
	if rng.Intn(3) == 0 {
		opts.MaxHops = 1 + rng.Intn(8)
	}
	return opts
}

// differentialCase builds one random small instance from seed, with hubs
// hub nodes (see randomTopology; every other one a broker), checks 4 random
// queries per node against the reference, and returns how many had a path and
// how many row cursors meet queued for them. The first query from each hub
// reads that hub's row a chunk at a time whatever else the instance holds, so
// a hub-bearing case that queues no cursor fails: the oracle never reached
// the re-queue path.
func differentialCase(t testing.TB, seed int64, n int, avgDeg, brokerShare float64, hubs int) (found, queries, requeued int) {
	rng := rand.New(rand.NewSource(seed))
	top := randomTopology(rng, n, avgDeg, hubs)
	var brokers []int32
	for u := 0; u < n; u++ {
		if rng.Float64() < brokerShare {
			brokers = append(brokers, int32(u))
		}
	}
	n = top.NumNodes()
	for i := 0; i < hubs; i += 2 {
		brokers = append(brokers, int32(n-hubs+i))
	}
	e := NewEngine(top, DefaultMetrics(top, rng), brokers)
	perturb(rng, e)
	s := e.search()
	for queries < 4*n {
		src, dst := rng.Intn(n), rng.Intn(n)
		if queries < hubs { // each hub once as the source, to a node not a hub
			src, dst = n-hubs+queries, dst%(n-hubs)
		}
		opts := randomOptions(rng)
		if checkAgainstReference(t, s, src, dst, opts) {
			found++
			if queries%4 == 0 {
				checkPenalisedRounds(t, e, src, dst, opts)
			}
		}
		if src != dst {
			_, _, q := s.meetWork(src, dst, opts)
			requeued += q
		}
		queries++
	}
	if hubs > 0 && requeued == 0 {
		t.Fatalf("seed %d: %d queries over %d hubs of %d+ arcs queued no row cursor", seed, queries, hubs, 3*rowChunk)
	}
	return found, queries, requeued
}

// checkPenalisedRounds replays what KAlternatives does to the penalty column
// — every link of the path just found made 8x longer, three times over — and
// checks each round's search against the reference under the same column:
// the break in meet bounds an arc by its raw latency, which is only a bound
// while every factor is at least 1. The column is put back afterwards.
func checkPenalisedRounds(t testing.TB, e *Engine, src, dst int, opts Options) {
	t.Helper()
	saved := slices.Clone(e.penalty)
	defer copy(e.penalty, saved)
	s := e.search()
	for round := 0; round < 3; round++ {
		p, err := s.bestPath(src, dst, opts)
		if err != nil {
			return
		}
		for i := 0; i+1 < len(p.Nodes); i++ {
			a, b := e.metrics.bothArcs(p.Nodes[i], p.Nodes[i+1])
			e.penalty[a] *= 8
			e.penalty[b] = e.penalty[a]
		}
		if !checkAgainstReference(t, s, src, dst, opts) {
			t.Fatalf("(%d,%d,%+v): no path under penalties, which only lengthen links", src, dst, opts)
		}
	}
}

// TestBestPathMatchesReference is the seeded property test: across random
// small graphs of varying density and broker share, with failed links,
// reservations and live penalties, the bidirectional search agrees with
// the one-sided reference on verdict and cost and only returns usable,
// dominated, simple paths.
func TestBestPathMatchesReference(t *testing.T) {
	var found, queries int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		f, q, _ := differentialCase(t, seed, n, 1+3*rng.Float64(), 0.1+0.6*rng.Float64(), 0)
		found, queries = found+f, queries+q
	}
	// Both verdicts must be well represented or the comparison is hollow.
	if found < queries/5 || found > queries*4/5 {
		t.Fatalf("%d of %d queries had a path — broken test setup", found, queries)
	}
	// The same on graphs with hubs whose rows take 3–4 chunks to read.
	found, queries = 0, 0
	requeued := 0
	for seed := int64(61); seed <= 72; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		f, q, r := differentialCase(t, seed, n, 1+3*rng.Float64(), 0.1+0.6*rng.Float64(), 1+int(seed%4))
		found, queries, requeued = found+f, queries+q, requeued+r
	}
	t.Logf("hub-bearing graphs: %d of %d queries had a path, %d row cursors queued", found, queries, requeued)
	if found < queries/5 || found > queries*4/5 {
		t.Fatalf("%d of %d hub-graph queries had a path — broken test setup", found, queries)
	}
}

// TestBestPathMatchesReferenceSmokeTier repeats the comparison on the
// generated smoke tier with a selected broker set — the graph shape the
// daemon actually serves — through both entry points.
func TestBestPathMatchesReferenceSmokeTier(t *testing.T) {
	top, err := topology.GenerateTier("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(top, DefaultMetrics(top, nil), brokers)
	perturb(rng, e)
	n := top.NumNodes()
	live := e.search()
	frozen := &pathSearch{top: top, arcs: e.metrics.View().arcState, inB: e.inB}
	const queries = 400
	found, residual := 0, 0
	for q := 0; q < queries; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		opts := randomOptions(rng)
		checkAgainstReference(t, live, src, dst, opts)
		if checkAgainstReference(t, frozen, src, dst, opts) {
			found++
		}
		// Force the residual: a bound one hop short of the unbounded optimum
		// is the one the dominance shortcut can never answer.
		opts.MaxHops = 0
		if p, err := frozen.bestPath(src, dst, opts); err == nil && p.Hops() > 1 {
			opts.MaxHops = p.Hops() - 1
			checkAgainstReference(t, live, src, dst, opts)
			checkAgainstReference(t, frozen, src, dst, opts)
			residual++
		}
	}
	if found < queries/5 || found > queries*4/5 {
		t.Fatalf("%d of %d queries had a path — broken test setup", found, queries)
	}
	if residual < queries/5 {
		t.Fatalf("only %d of %d queries reached the hop-bounded residual", residual, queries)
	}
}

// FuzzBestPathVsReference lets the fuzzer pick the instance shape, up to
// three hubs included; the instance itself is derived from the seed so every
// failure replays.
func FuzzBestPathVsReference(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), uint8(40), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(64), uint8(4), uint8(100), uint8(0))
	f.Add(int64(4), uint8(40), uint8(3), uint8(30), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, deg, brokerPct, hubs uint8) {
		differentialCase(t, seed, 2+int(n%63), float64(1+deg%5), float64(brokerPct%101)/100, int(hubs%4))
	})
}

// TestScratchGenerationWrap drives a scratch across the uint32 wrap: labels
// stamped 2^32 searches ago must not read as live, and row positions left
// from earlier searches must not be read at all — the search is 0–1–2–3–4
// through node 1, a hub whose row holds three chunks of shorter stub links
// before the arc to 2, so it is read by queued cursors.
func TestScratchGenerationWrap(t *testing.T) {
	const line = 5
	n := line + 3*rowChunk
	b := graph.NewBuilder(n)
	for u := 0; u+1 < line; u++ {
		b.AddEdge(u, u+1)
	}
	for stub := line; stub < n; stub++ {
		b.AddEdge(1, stub)
	}
	top := peerTopology(b.MustBuild())
	m := newMetrics(top, func(_ int, u, v int32) (float64, float64) {
		if u >= line || v >= line {
			return 1, 10
		}
		return 10, 10
	})
	s := NewEngine(top, m, []int32{1, 3}).search()
	sc := new(searchScratch)
	sc.reset(n)
	// Poison every label with the stamp the first post-wrap search would
	// otherwise use and every row position past its row's end, then park the
	// counter just below the wrap.
	for _, side := range []*searchSide{&sc.fwd, &sc.bwd} {
		for i := range side.state {
			side.state[i] = nodeLabel{dist: 0, parent: int32(i), stamp: 1}
			side.pos[i] = math.MaxInt32
		}
	}
	sc.gen = math.MaxUint32
	sc.reset(n)
	meet := s.meet(sc, 0, 4, Options{})
	if meet < 0 {
		t.Fatal("stale labels or row positions survived the generation wrap: no path found")
	}
	if nodes := sc.stitch(meet, 0, 4); !slices.Equal(nodes, []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("path after wrap = %v, want 0..4", nodes)
	}
	if sc.fwd.requeued+sc.bwd.requeued == 0 {
		t.Fatal("the hub's row was read in one pop: no row position was put to use")
	}
}
