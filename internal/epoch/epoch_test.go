package epoch

import (
	"context"
	"strings"
	"sync"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// IsBroker reports coalition membership for a node.
func (s *Snapshot) IsBroker(n int32) bool {
	return int(n) < len(s.inB) && n >= 0 && s.inB[n]
}

func testSnapshot(t *testing.T) (*Snapshot, *topology.Topology, []int32, *routing.Metrics) {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	snap := NewSnapshot(SnapshotData{
		Top:     top,
		Live:    top.Graph,
		Brokers: brokers,
		View:    m.View(),
	})
	return snap, top, brokers, m
}

func TestPublisherMonotonicEpochs(t *testing.T) {
	snap, top, brokers, m := testSnapshot(t)
	pub := NewPublisher(snap)
	if pub.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", pub.Epoch())
	}
	if pub.Current() != snap {
		t.Fatal("Current did not return the initial snapshot")
	}

	var wg sync.WaitGroup
	// Metrics.View is a writer-side call: captures must be serialized.
	var viewMu sync.Mutex
	const writers, rounds = 4, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				viewMu.Lock()
				view := m.View()
				viewMu.Unlock()
				next := NewSnapshot(SnapshotData{
					Top: top, Live: top.Graph, Brokers: brokers,
					View: view,
				})
				pub.Publish(context.Background(), next)
			}
		}()
	}
	// Concurrent readers must see a non-decreasing epoch sequence.
	done := make(chan struct{})
	var readerErr error
	go func() {
		defer close(done)
		last := uint64(0)
		for i := 0; i < 5000; i++ {
			e := pub.Current().ID()
			if e < last {
				readerErr = &epochRegression{last, e}
				return
			}
			last = e
		}
	}()
	wg.Wait()
	<-done
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if got, want := pub.Epoch(), uint64(1+writers*rounds); got != want {
		t.Fatalf("final epoch = %d, want %d", got, want)
	}
}

type epochRegression struct{ prev, got uint64 }

func (e *epochRegression) Error() string { return "epoch went backwards" }

func TestSnapshotBestPathMatchesEngine(t *testing.T) {
	snap, top, brokers, m := testSnapshot(t)
	eng := routing.NewEngine(top, m, brokers)
	n := top.NumNodes()
	checked := 0
	for src := 0; src < n && checked < 100; src += 7 {
		dst := (src*13 + 5) % n
		want, werr := eng.BestPath(src, dst, routing.Options{})
		got, gerr := snap.BestPath(src, dst, routing.Options{})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("(%d,%d): engine err %v, snapshot err %v", src, dst, werr, gerr)
		}
		if werr == nil && (want.Latency != got.Latency || len(want.Nodes) != len(got.Nodes)) {
			t.Fatalf("(%d,%d): engine %v, snapshot %v", src, dst, want.Nodes, got.Nodes)
		}
		checked++
	}
}

func TestSnapshotDownMarks(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	// Node 3 has left and one link elsewhere has failed: the live graph is
	// the topology's without node 3's row and without that link.
	var links [][2]int32 // clear of node 3: one to fail, one to leave up
	top.Graph.Edges(func(u, v int) bool {
		if u != 3 && v != 3 {
			links = append(links, [2]int32{int32(u), int32(v)})
		}
		return len(links) < 2
	})
	failed, healthy := links[0], links[1]
	dirty := append([]int32{3, failed[0], failed[1]}, top.Graph.Neighbors(3)...)
	live := top.Graph.WithoutArcs(dirty, arcsWhere(top.Graph, func(u, v int32) bool {
		return u == 3 || v == 3 || [2]int32{min(u, v), max(u, v)} == failed
	}))
	snap := NewSnapshot(SnapshotData{
		Top: top, Live: live, Brokers: []int32{1, 2},
		View: m.View(),
	})
	if !snap.LinkDown(failed[0], failed[1]) || !snap.LinkDown(failed[1], failed[0]) {
		t.Fatal("failed link not down from both ends")
	}
	if !snap.LinkDown(3, top.Graph.Neighbors(3)[0]) {
		t.Fatal("link touching a down node should read as down")
	}
	if snap.LinkDown(healthy[0], healthy[1]) {
		t.Fatal("healthy link reads as down")
	}
	if !snap.LinkDown(-1, 0) || !snap.LinkDown(0, int32(top.NumNodes())) {
		t.Fatal("a pair outside the topology reads as an up link")
	}
	if !snap.IsBroker(1) || snap.IsBroker(3) {
		t.Fatal("IsBroker wrong")
	}
}

func TestConnectivityCachedPerSnapshot(t *testing.T) {
	snap, _, _, _ := testSnapshot(t)
	first := snap.Connectivity()
	if first <= 0 || first > 1 {
		t.Fatalf("connectivity = %f, want (0,1]", first)
	}
	if again := snap.Connectivity(); again != first {
		t.Fatalf("cached connectivity changed: %f -> %f", first, again)
	}
}

func TestPublisherMetrics(t *testing.T) {
	snap, top, brokers, m := testSnapshot(t)
	pub := NewPublisher(snap)
	reg := obs.NewRegistry()
	pub.RegisterMetrics(reg)
	next := NewSnapshot(SnapshotData{
		Top: top, Live: top.Graph, Brokers: brokers,
		View: m.View(),
	})
	pub.Publish(context.Background(), next)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"epoch_current 2", "epoch_published_total 1", "epoch_snapshot_age_seconds_count 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotPathValid(t *testing.T) {
	snap, top, brokers, m := testSnapshot(t)
	src, dst := int(brokers[0]), int(brokers[len(brokers)-1])
	p, err := snap.BestPath(src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.PathValid(p, routing.Options{}) {
		t.Fatal("freshly computed path not valid under its own snapshot")
	}
	if snap.PathValid(&routing.Path{}, routing.Options{}) {
		t.Fatal("empty path reads valid")
	}
	if snap.PathValid(p, routing.Options{MaxHops: 1}) && len(p.Nodes) > 2 {
		t.Fatal("hop bound not enforced")
	}
	if snap.PathValid(p, routing.Options{MinBandwidth: 1e12}) {
		t.Fatal("bandwidth floor not enforced")
	}

	// The same path under a snapshot where one of its links is down.
	u, v := p.Nodes[0], p.Nodes[1]
	live := top.Graph.WithoutArcs([]int32{u, v}, arcsWhere(top.Graph, func(a, b int32) bool {
		return (a == u && b == v) || (a == v && b == u)
	}))
	down := NewSnapshot(SnapshotData{
		Top: top, Live: live, Brokers: brokers,
		View: m.View(),
	})
	if down.PathValid(p, routing.Options{}) {
		t.Fatal("path over a down link reads valid")
	}

	// A hop with neither endpoint in the coalition violates domination.
	var nu, nv int32 = -1, -1
	top.Graph.Edges(func(a, b int) bool {
		if !snap.IsBroker(int32(a)) && !snap.IsBroker(int32(b)) {
			nu, nv = int32(a), int32(b)
			return false
		}
		return true
	})
	if nu >= 0 && snap.PathValid(&routing.Path{Nodes: []int32{nu, nv}}, routing.Options{}) {
		t.Fatal("undominated hop reads valid")
	}
}

// arcsWhere returns WithoutArcs's drop set: the arcs of g for which drop
// reports true.
func arcsWhere(g *graph.Graph, drop func(u, v int32) bool) graph.Bitset {
	set := graph.NewBitset(g.NumArcs())
	for u := 0; u < g.NumNodes(); u++ {
		for i, v := range g.Neighbors(u) {
			if drop(int32(u), v) {
				set.Set(int32(g.ArcOffset(u) + i))
			}
		}
	}
	return set
}
