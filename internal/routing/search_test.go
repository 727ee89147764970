package routing

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// assertLinkSymmetric fails unless both arcs of link (u,v) carry the same
// latency, capacity, reservation and failure state — what lets the backward
// search read arc u→v for a step travelled v→u.
func assertLinkSymmetric(t *testing.T, top *topology.Topology, s *arcState, u, v int32, after string) {
	t.Helper()
	a, b := top.Graph.ArcOf(int(u), int(v)), top.Graph.ArcOf(int(v), int(u))
	if s.latency[a] != s.latency[b] || s.capacity[a] != s.capacity[b] ||
		s.used.at(a) != s.used.at(b) || s.failed.Has(int32(a)) != s.failed.Has(int32(b)) {
		t.Fatalf("after %s: link (%d,%d) differs by direction: latency %v/%v capacity %v/%v used %v/%v failed %v/%v",
			after, u, v, s.latency[a], s.latency[b], s.capacity[a], s.capacity[b],
			s.used.at(a), s.used.at(b), s.failed.Has(int32(a)), s.failed.Has(int32(b)))
	}
}

// assertRowOrdered fails unless node u's slice of the order column is a
// permutation of u's arc indexes in non-decreasing latency — what lets meet
// leave the row at the first arc too long to matter.
func assertRowOrdered(t *testing.T, top *topology.Topology, s *arcState, u int32, after string) {
	t.Helper()
	off, d := top.Graph.ArcOffset(int(u)), top.Graph.Degree(int(u))
	row := s.order[off : off+d]
	for i := 1; i < d; i++ {
		if s.latency[row[i-1]] > s.latency[row[i]] {
			t.Fatalf("after %s: node %d's order column has latency %v before %v at %d",
				after, u, s.latency[row[i-1]], s.latency[row[i]], i)
		}
	}
	arcs := slices.Clone(row)
	slices.Sort(arcs)
	for i, a := range arcs {
		if int(a) != off+i {
			t.Fatalf("after %s: node %d's order column %v is not a permutation of arcs %d..%d", after, u, row, off, off+d-1)
		}
	}
}

// assertArcSymmetry checks every link of top and every row of the order
// column, which must cover the latency column exactly.
func assertArcSymmetry(t *testing.T, top *topology.Topology, s *arcState, after string) {
	t.Helper()
	top.Graph.Edges(func(u, v int) bool {
		assertLinkSymmetric(t, top, s, int32(u), int32(v), after)
		return true
	})
	if len(s.order) != len(s.latency) {
		t.Fatalf("after %s: order column has %d entries for %d arcs", after, len(s.order), len(s.latency))
	}
	for u := 0; u < top.NumNodes(); u++ {
		assertRowOrdered(t, top, s, int32(u), after)
	}
}

// TestArcStateSymmetric drives every Metrics constructor and mutator, from
// both ends of the link and across View captures (so the copy-on-write
// paths run too), checking the touched link and its endpoints' rows of the
// order column after each step, and every link and row of the live state and
// of each captured View at the end — a View taken before a SetLatency must
// keep the order that matches its own latencies.
func TestArcStateSymmetric(t *testing.T) {
	top, def, _, _ := viewFixture(t)
	assertArcSymmetry(t, top, &def.arcState, "DefaultMetrics")
	fn := newMetrics(top, func(_ int, u, v int32) (float64, float64) {
		return 1 + float64(u%7) + float64(v%11)/4, 5 + float64(3*u+v)/float64(top.NumNodes())
	})
	assertArcSymmetry(t, top, &fn.arcState, "newMetrics")

	var links [][2]int32
	top.Graph.Edges(func(u, v int) bool {
		links = append(links, [2]int32{int32(u), int32(v)})
		return true
	})
	rng := rand.New(rand.NewSource(11))
	for _, m := range []*Metrics{def, fn} {
		var views []*View
		for step := 0; step < 2000; step++ {
			l := links[rng.Intn(len(links))]
			u, v := l[0], l[1]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			var op string
			switch rng.Intn(7) {
			case 0:
				op = "Reserve"
				if err := m.Reserve(u, v, m.Available(u, v)*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case 1:
				op = "Release" // up to 2x the capacity: exercises the clamp at zero
				m.Release(u, v, 2*m.Capacity(u, v)*rng.Float64())
			case 2:
				op = "FailLink"
				m.FailLink(u, v)
			case 3:
				op = "RestoreLink"
				m.RestoreLink(u, v)
			case 4:
				op = "SetLatency"
				m.SetLatency(u, v, 1+50*rng.Float64())
			case 5:
				op = "SetCapacity"
				m.SetCapacity(u, v, 1+100*rng.Float64())
			case 6:
				op = "View"
				views = append(views, m.View())
			}
			assertLinkSymmetric(t, top, &m.arcState, u, v, op)
			assertRowOrdered(t, top, &m.arcState, u, op)
			assertRowOrdered(t, top, &m.arcState, v, op)
		}
		assertArcSymmetry(t, top, &m.arcState, "the mutation run")
		for _, view := range views {
			assertArcSymmetry(t, top, &view.arcState, "View")
		}
	}
}

// smokeFixture is the 1,041-node smoke tier with a selected broker set and
// a frozen view, plus one pair with a dominated path and one without.
func smokeFixture(t *testing.T) (view *View, inB []bool, found, nopath [2]int) {
	t.Helper()
	top, err := topology.GenerateTier("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 20)
	if err != nil {
		t.Fatal(err)
	}
	inB = make([]bool, top.NumNodes())
	for _, b := range brokers {
		inB[b] = true
	}
	view = DefaultMetrics(top, nil).View()
	rng := rand.New(rand.NewSource(2))
	var haveFound, haveNopath bool
	for !haveFound || !haveNopath {
		src, dst := rng.Intn(top.NumNodes()), rng.Intn(top.NumNodes())
		if src == dst {
			continue
		}
		if _, err := BestPathOver(view, inB, src, dst, Options{}); err == nil {
			found, haveFound = [2]int{src, dst}, true
		} else {
			nopath, haveNopath = [2]int{src, dst}, true
		}
	}
	return view, inB, found, nopath
}

// TestBestPathOverAllocs pins the search's allocations to what it returns:
// the Path and its node slice when found, the error when not — under a hop
// bound the unbounded optimum fits, too. Anything proportional to the graph
// (the one-sided search allocated and initialised 12 bytes per node per
// query; the old hop-bounded one filled two maps) fails it.
func TestBestPathOverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries, so scratch is reallocated")
	}
	view, inB, found, nopath := smokeFixture(t)
	for _, c := range []struct {
		name string
		pair [2]int
		opts Options
		max  float64
	}{{"found", found, Options{}, 2}, {"nopath", nopath, Options{}, 4}, {"found within 64 hops", found, Options{MaxHops: 64}, 2}} {
		got := testing.AllocsPerRun(200, func() {
			p, err := BestPathOver(view, inB, c.pair[0], c.pair[1], c.opts)
			if (err == nil) != (c.name != "nopath") || (p == nil) != (err != nil) {
				t.Errorf("%s pair %v: path %v, err %v", c.name, c.pair, p, err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %.0f allocs per search, want <= %.0f", c.name, got, c.max)
		}
	}
}

// TestBestPathOverConcurrentPool: 8 goroutines search two shared Views of
// different sizes at once, so pooled scratch is handed between searches of
// different n and grown on the way. Every answer must equal the serial
// one; run with -race -count=10.
func TestBestPathOverConcurrentPool(t *testing.T) {
	type query struct {
		view     *View
		inB      []bool
		src, dst int
		want     *Path
	}
	large, largeB, _, _ := smokeFixture(t)
	smallTop, smallM, _, smallB := viewFixture(t)
	small := smallM.View()
	rng := rand.New(rand.NewSource(9))
	var queries []query
	for i := 0; i < 300; i++ {
		q := query{view: large, inB: largeB}
		n := large.top.NumNodes()
		if i%2 == 1 {
			q.view, q.inB, n = small, smallB, smallTop.NumNodes()
		}
		q.src, q.dst = rng.Intn(n), rng.Intn(n)
		q.want, _ = BestPathOver(q.view, q.inB, q.src, q.dst, Options{})
		queries = append(queries, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+g*37)%len(queries)]
				got, err := BestPathOver(q.view, q.inB, q.src, q.dst, Options{})
				if (err != nil) != (q.want == nil) {
					t.Errorf("(%d,%d): err %v, serial path %v", q.src, q.dst, err, q.want)
					continue
				}
				if err != nil {
					continue
				}
				if got.Latency != q.want.Latency || got.Bottleneck != q.want.Bottleneck || pathSignature(got.Nodes) != pathSignature(q.want.Nodes) {
					t.Errorf("(%d,%d): %v (%f), serial %v (%f)", q.src, q.dst, got.Nodes, got.Latency, q.want.Nodes, q.want.Latency)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLeadBoundCurbsHubFlood pins the degenerate case the lead bound exists
// for: a stub behind one long link searching for a hub in a dense core of
// short ones. After the stub is popped the forward heap top is the long
// link, so the smaller-top rule alone has the backward side settle every
// core node nearer the hub than the stub's provider — most of the core —
// before the forward side moves again. Alternating arc for arc, the
// backward side yields as soon as it has read more than the forward side,
// which steps into the core; the two meet, and the search stops having
// settled a small share of it (43 nodes, charging each pop the arcs it read,
// whether a row is read whole up to its cut or a chunk at a time — no row
// here is longer than one chunk; 44 when a pop was charged its whole row, 237
// under the older bound of n arcs). The answer must still be the reference's.
func TestLeadBoundCurbsHubFlood(t *testing.T) {
	const core, deg = 4000, 16
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(core + 1)
	for u := 0; u < core; u++ {
		b.AddEdge(u, (u+1)%core) // keep the core connected
		for i := 0; i < deg/2-1; i++ {
			if v := rng.Intn(core); v != u {
				b.AddEdge(u, v)
			}
		}
	}
	const hub, provider, stub = 0, core / 2, core
	b.AddEdge(stub, provider)
	top := peerTopology(b.MustBuild())
	m := newMetrics(top, func(_ int, u, v int32) (float64, float64) {
		if u == stub || v == stub {
			return 100, 10 // longer than any walk across the core
		}
		return 1 + 2*rng.Float64(), 10
	})
	brokers := make([]int32, top.NumNodes())
	for i := range brokers {
		brokers[i] = int32(i)
	}
	s := NewEngine(top, m, brokers).search()

	sc := new(searchScratch)
	sc.reset(top.NumNodes())
	if meet := s.meet(sc, stub, hub, Options{}); meet < 0 {
		t.Fatal("no path from the stub to the hub")
	}
	// A backward label below the backward heap's top has been popped.
	settled := 0
	for _, l := range sc.bwd.state {
		if l.stamp == sc.gen && l.dist < sc.bwd.heap.costs[0] {
			settled++
		}
	}
	t.Logf("backward side settled %d of %d core nodes", settled, core)
	if settled > core/4 {
		t.Errorf("backward side settled %d of %d core nodes: the lead bound did not stop the hub-side flood", settled, core)
	}
	checkAgainstReference(t, s, stub, hub, Options{})
	checkAgainstReference(t, s, hub, stub, Options{})
}

// TestRowSorterMatchesComparisonSort feeds the bucket sort the rows its
// shortcut is worst at — all ties, one far outlier beside a tight cluster,
// zero, negative and infinite latencies, rows on either side of smallRow —
// through one reused rowSorter, at a non-zero offset, against a comparison
// sort of the same arcs.
func TestRowSorterMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rs rowSorter
	for _, d := range []int{0, 1, 2, smallRow, smallRow + 1, 64, 65, 1000, 7} {
		for _, shape := range []string{"uniform", "ties", "few values", "cluster and outlier", "mixed signs", "descending"} {
			const off = 5
			latency := make([]float64, off+d+3)
			for i := range latency {
				switch shape {
				case "uniform":
					latency[i] = 1 + 39*rng.Float64()
				case "ties":
					latency[i] = 2.5
				case "few values":
					latency[i] = float64(rng.Intn(3))
				case "cluster and outlier":
					latency[i] = 10 + 1e-9*rng.Float64()
					if i == off+d/2 {
						latency[i] = 1e6
					}
				case "mixed signs":
					latency[i] = []float64{-3, 0, 1.5, math.Inf(1), -0.25}[rng.Intn(5)] * (1 + rng.Float64())
				case "descending":
					latency[i] = float64(len(latency) - i)
				}
			}
			want := make([]int32, d)
			for i := range want {
				want[i] = int32(off + i)
			}
			slices.SortFunc(want, func(a, b int32) int {
				return cmp.Or(cmp.Compare(latency[a], latency[b]), cmp.Compare(a, b))
			})
			got := make([]int32, d)
			rs.sort(got, off, latency)
			if !slices.Equal(got, want) {
				t.Fatalf("%s row of %d arcs: order %v, want %v (latencies %v)", shape, d, got, want, latency[off:off+d])
			}
		}
	}
}

// TestBreakLeavesCrossingArcBehind is the case the break's exactness argument
// (DESIGN.md, "Latency-ordered rows") exists for: the optimum s–u–v–t crosses on arc (u,v), the
// longest but one in u's row, and by the time the forward side pops u the
// backward side has settled v and moved its heap top past it — so the forward
// side leaves u's row before (u,v) and never labels v. The walk is not lost:
// the backward side, popping v while the forward top was still below u,
// relaxed (v,u) against u's forward label and put the 12 ms into mu then.
// s's ten pendant links make the forward side the one that has done more
// work, which is what lets the backward side run ahead to v, w, y.
func TestBreakLeavesCrossingArcBehind(t *testing.T) {
	const (
		s, u, v, dst, w, y, z, q, q2 = 0, 1, 2, 3, 4, 5, 6, 7, 8
		leaves, n                    = 10, 9 + 10
	)
	lat := map[[2]int32]float64{
		{s, u}: 1, {u, v}: 10, {v, dst}: 1, // the only s–t path: 12 ms
		{v, w}: 2, {w, y}: 2, {y, z}: 2, // keeps the backward heap top low
		{u, q}: 2, {u, q2}: 20, // u's row: s 1, q 2, v 10, q2 20
	}
	for i := int32(0); i < leaves; i++ {
		lat[[2]int32{s, 9 + i}] = 5
	}
	b := graph.NewBuilder(n)
	for e := range lat {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	top := peerTopology(b.MustBuild())
	m := newMetrics(top, func(_ int, a, b int32) (float64, float64) { return lat[[2]int32{a, b}], 10 })
	brokers := make([]int32, n)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	search := NewEngine(top, m, brokers).search()

	sc := new(searchScratch)
	sc.reset(n)
	meet := search.meet(sc, s, dst, Options{})
	if meet < 0 {
		t.Fatal("no path")
	}
	if nodes := sc.stitch(meet, s, dst); !slices.Equal(nodes, []int32{s, u, v, dst}) {
		t.Fatalf("path %v, want [s u v t]", nodes)
	}
	if l := sc.bwd.state[v]; l.stamp != sc.gen || l.dist != 1 {
		t.Fatalf("backward label of v is %+v, want settled at 1", l)
	}
	if l := sc.fwd.state[q]; l.stamp != sc.gen {
		t.Fatal("the forward side never expanded u: q, on the short end of u's row, has no label")
	}
	if sc.fwd.state[v].stamp == sc.gen || sc.fwd.state[q2].stamp == sc.gen {
		t.Fatal("the forward side read past the break in u's row: v or q2 has a forward label")
	}
	for _, o := range []Options{{}, {BrokersOnly: true}, {MinBandwidth: 5}, {MaxHops: 3}} {
		checkAgainstReference(t, search, s, dst, o)
		checkAgainstReference(t, search, dst, s, o)
	}
}

// TestChunkedRowsKeepTheCrossingArc is the case the half-latency cut exists
// for. The optimum s–u–v–t (42 ms) crosses between two hubs on arc (u,v), the
// last of each hub's row, behind a chunk of 30 ms stubs; s–w–t (50 ms) is
// found first. Each hub is popped with its first chunk, and its row goes back
// on the heap as a cursor keyed 1 + 30/2. The forward cursor pops first and
// reads (u,v): 1 + 40/2 + the backward top 16 is under mu = 50, so v gets its
// forward label and mu becomes 42. Cut at the full latency instead, 1 + 40 +
// 16 >= 50 leaves the arc behind, the backward cursor cuts its row at once
// (the forward top is 25 by then, 1 + 30 + 25 >= 50), and the search returns
// s–w–t: each side cuts the arc after the other settled its head, but before
// the other read past its midpoint.
func TestChunkedRowsKeepTheCrossingArc(t *testing.T) {
	const s, u, v, dst, w = 0, 1, 2, 3, 4
	lat := map[[2]int32]float64{{s, u}: 1, {u, v}: 40, {v, dst}: 1, {s, w}: 25, {w, dst}: 25}
	n := int32(5)
	for _, hub := range []int32{u, v} {
		for i := 0; i < rowChunk; i++ {
			lat[[2]int32{hub, n}] = 30
			n++
		}
	}
	b := graph.NewBuilder(int(n))
	for e := range lat {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	top := peerTopology(b.MustBuild())
	m := newMetrics(top, func(_ int, a, b int32) (float64, float64) {
		if l, ok := lat[[2]int32{a, b}]; ok {
			return l, 10
		}
		return lat[[2]int32{b, a}], 10
	})
	brokers := make([]int32, n)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	search := NewEngine(top, m, brokers).search()

	sc := new(searchScratch)
	sc.reset(int(n))
	meet := search.meet(sc, s, dst, Options{})
	if meet < 0 {
		t.Fatal("no path")
	}
	if nodes := sc.stitch(meet, s, dst); !slices.Equal(nodes, []int32{s, u, v, dst}) {
		t.Fatalf("path %v, want [s u v t]", nodes)
	}
	if sc.fwd.requeued == 0 || sc.bwd.requeued == 0 {
		t.Fatalf("cursors queued forward %d, backward %d: a hub's row was read in one pop", sc.fwd.requeued, sc.bwd.requeued)
	}
	if l := sc.fwd.state[v]; l.stamp != sc.gen || l.dist != 41 {
		t.Fatalf("forward label of v is %+v, want 41 from u's second chunk", l)
	}
	for _, o := range []Options{{}, {BrokersOnly: true}, {MinBandwidth: 5}, {MaxHops: 3}} {
		checkAgainstReference(t, search, s, dst, o)
		checkAgainstReference(t, search, dst, s, o)
	}
}
