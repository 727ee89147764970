package routing

import (
	"math/rand"
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
		s.used.at(a) != s.used.at(b) || s.failed[a] != s.failed[b] {
		t.Fatalf("after %s: link (%d,%d) differs by direction: latency %v/%v capacity %v/%v used %v/%v failed %v/%v",
			after, u, v, s.latency[a], s.latency[b], s.capacity[a], s.capacity[b],
			s.used.at(a), s.used.at(b), s.failed[a], s.failed[b])
	}
}

// assertArcSymmetry checks every link of top.
func assertArcSymmetry(t *testing.T, top *topology.Topology, s *arcState, after string) {
	t.Helper()
	top.Graph.Edges(func(u, v int) bool {
		assertLinkSymmetric(t, top, s, int32(u), int32(v), after)
		return true
	})
}

// TestArcStateSymmetric drives every Metrics constructor and mutator, from
// both ends of the link and across View captures (so the copy-on-write
// paths run too), checking the touched link after each step and every link
// of the live state and of each captured View at the end.
func TestArcStateSymmetric(t *testing.T) {
	top, def, _, _ := viewFixture(t)
	assertArcSymmetry(t, top, &def.arcState, "DefaultMetrics")
	fn := NewMetricsFunc(top, func(u, v int32) (float64, float64) {
		return 1 + float64(u%7) + float64(v%11)/4, 5 + float64(3*u+v)/float64(top.NumNodes())
	})
	assertArcSymmetry(t, top, &fn.arcState, "NewMetricsFunc")

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
// backward side yields as soon as it has scanned more than the forward
// side, which steps into the core; the two meet, and the search stops
// having settled a small share of it (44 nodes; 237 under the old bound of
// n arcs). The answer must still be the reference's.
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
	m := NewMetricsFunc(top, func(u, v int32) (float64, float64) {
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
