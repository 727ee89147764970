package churn

import (
	"slices"
	"testing"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// downLinks returns the number of effectively-down links.
func downLinks(s *State) int {
	return s.top.Graph.NumEdges() - s.LiveGraph().NumEdges()
}

// rebuildLive is LiveGraph as it stood before the row patch — every up
// link re-added through a graph.Builder — kept as the reference the patched
// graph must equal.
func rebuildLive(s *State) (live *graph.Graph, down int) {
	b := graph.NewBuilder(s.top.NumNodes())
	s.top.Graph.Edges(func(u, v int) bool {
		if s.LinkDown(int32(u), int32(v)) {
			down++
			return true
		}
		b.AddEdge(u, v)
		return true
	})
	return b.MustBuild(), down
}

// requireLiveMatchesRebuild checks the cached live graph against the
// rebuild arc for arc, and the down-node counter against a scan.
func requireLiveMatchesRebuild(t *testing.T, st *State, step string) {
	t.Helper()
	st.invalidateLive()
	got := st.LiveGraph()
	want, down := rebuildLive(st)
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: live graph %d nodes / %d links, rebuild %d / %d",
			step, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for u := 0; u < want.NumNodes(); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) {
			t.Fatalf("%s: row %d = %v, rebuild has %v", step, u, got.Neighbors(u), want.Neighbors(u))
		}
		if !slices.IsSorted(got.Neighbors(u)) {
			t.Fatalf("%s: row %d not sorted: %v", step, u, got.Neighbors(u))
		}
	}
	if downLinks(st) != down {
		t.Fatalf("%s: down links = %d, rebuild counted %d", step, downLinks(st), down)
	}
	scan := 0
	for _, d := range st.nodeDown {
		if d {
			scan++
		}
	}
	if st.downNodes != scan {
		t.Fatalf("%s: down nodes = %d, %d flags set", step, st.downNodes, scan)
	}
	if down == 0 && got != st.top.Graph {
		t.Fatalf("%s: everything is up but the live graph is a copy, not the topology's own graph", step)
	}
}

// TestLiveGraphMatchesRebuild walks a scripted trace through the cases the
// patch has to get right — a failed link on a row whose node then leaves,
// the node's return with that link still down, redundant events, and the
// return to all-up — then a long generated trace with recoveries mixed in.
func TestLiveGraphMatchesRebuild(t *testing.T) {
	top, err := topology.GenerateTier("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(top, nil)
	a := NewApplier(st)
	requireLiveMatchesRebuild(t, st, "boot")

	hub := int32(top.Graph.MaxDegreeNode())
	nb := top.Graph.Neighbors(int(hub))
	first, last := int32(0), int32(top.NumNodes()-1)
	script := []Event{
		{Type: LinkFail, U: hub, V: nb[0]},
		{Type: NodeLeave, Node: hub},               // the row with the failed link empties
		{Type: LinkFail, U: hub, V: nb[len(nb)-1]}, // a link that is already effectively down
		{Type: NodeLeave, Node: nb[1]},             // a neighbour of a departed node departs
		{Type: NodeLeave, Node: hub},               // redundant
		{Type: NodeJoin, Node: hub},                // back, minus its two failed links and nb[1]
		{Type: NodeLeave, Node: first},             // first CSR row
		{Type: NodeLeave, Node: last},              // last CSR row
		{Type: LinkRecover, U: hub, V: nb[0]},
		{Type: NodeJoin, Node: nb[1]},
		{Type: NodeJoin, Node: first},
		{Type: NodeJoin, Node: last},
		{Type: LinkRecover, U: nb[len(nb)-1], V: hub}, // all-up again
		{Type: LinkRecover, U: nb[len(nb)-1], V: hub}, // redundant
		{Type: BrokerFail, Node: hub},                 // broker-plane only: no link moves
		{Type: BrokerRecover, Node: hub},
		{Type: LinkFail, U: first, V: top.Graph.Neighbors(int(first))[0]},
	}
	returnedToAllUp := false
	for i, ev := range script {
		if _, err := a.Apply(ev); err != nil {
			t.Fatalf("script %d (%s): %v", i, ev, err)
		}
		requireLiveMatchesRebuild(t, st, ev.String())
		returnedToAllUp = returnedToAllUp || downLinks(st) == 0
	}
	if !returnedToAllUp {
		t.Fatal("script never returned to all-up: the top.Graph hand-back went unchecked")
	}

	gen := NewGenerator(st, func() []int32 { return []int32{hub, nb[0], nb[2]} }, GenConfig{Seed: 7})
	for i := 0; i < 300; i++ {
		ev, ok := gen.Next()
		if !ok {
			continue
		}
		if _, err := a.Apply(ev); err != nil {
			t.Fatalf("generated %d (%s): %v", i, ev, err)
		}
		requireLiveMatchesRebuild(t, st, ev.String())
	}
	if downLinks(st) == 0 || st.downNodes == 0 {
		t.Fatalf("generated trace left %d links and %d nodes down: nothing was exercised", downLinks(st), st.downNodes)
	}
}

// TestSnapshotLinkDownMatchesState: a snapshot has no down-link set of its
// own — it reads its live graph — so after every event of a generated trace
// it must agree with the state's sparse set on every link of the topology,
// an earlier snapshot must not move, and a restored link must read up again.
func TestSnapshotLinkDownMatchesState(t *testing.T) {
	top, err := topology.GenerateTier("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(top, nil)
	a := NewApplier(st)
	requireAgree := func(step string) {
		t.Helper()
		snap := st.Snapshot(nil, nil)
		top.Graph.Edges(func(u, v int) bool {
			want := st.LinkDown(int32(u), int32(v))
			if snap.LinkDown(int32(u), int32(v)) != want || snap.LinkDown(int32(v), int32(u)) != want {
				t.Fatalf("%s: snapshot disagrees with the state on link (%d,%d), which is down=%v", step, u, v, want)
			}
			return true
		})
	}
	gen := NewGenerator(st, nil, GenConfig{Seed: 3})
	for i := 0; i < 200; i++ {
		ev, ok := gen.Next()
		if !ok {
			continue
		}
		if _, err := a.Apply(ev); err != nil {
			t.Fatalf("generated %d (%s): %v", i, ev, err)
		}
		requireAgree(ev.String())
	}
	if downLinks(st) == 0 {
		t.Fatal("generated trace left no link down: nothing was exercised")
	}

	var u, v int32 = -1, -1
	top.Graph.Edges(func(a, b int) bool {
		if !st.LinkDown(int32(a), int32(b)) {
			u, v = int32(a), int32(b)
		}
		return u < 0
	})
	before := st.Snapshot(nil, nil)
	for _, step := range []struct {
		ev   Event
		down bool
	}{{Event{Type: LinkFail, U: u, V: v}, true}, {Event{Type: LinkRecover, U: v, V: u}, false}} {
		if _, err := a.Apply(step.ev); err != nil {
			t.Fatal(err)
		}
		if got := st.Snapshot(nil, nil).LinkDown(u, v); got != step.down {
			t.Fatalf("after %s: snapshot reads link (%d,%d) down=%v", step.ev, u, v, got)
		}
		if before.LinkDown(u, v) {
			t.Fatalf("%s moved a snapshot taken before it", step.ev)
		}
	}
	requireAgree("restore")
}

// BenchmarkTable2LiveGraph measures one live-graph derivation on the
// Table-2 tier in the state the churn_heal workload's first posts leave: a
// few dozen failed links and a couple of departed nodes. It is what every
// churn post that moves a link pays before healing starts.
func BenchmarkTable2LiveGraph(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	st := NewState(top, nil)
	a := NewApplier(st)
	gen := NewGenerator(st, nil, GenConfig{Seed: 1})
	for post := 0; post < 16; post++ {
		events, err := gen.GenerateTrace(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.ApplyAll(events); err != nil {
			b.Fatal(err)
		}
	}
	for _, u := range []int32{1000, 40000} {
		if _, err := a.Apply(Event{Type: NodeLeave, Node: u}); err != nil {
			b.Fatal(err)
		}
	}
	_, down := rebuildLive(st)
	if down < 24 || st.downNodes < 2 {
		b.Fatalf("set-up left %d links and %d nodes down, want a few dozen and a couple", down, st.downNodes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.invalidateLive()
		if got := st.LiveGraph().NumEdges(); got != top.Graph.NumEdges()-down {
			b.Fatalf("live graph has %d links, want %d", got, top.Graph.NumEdges()-down)
		}
	}
}
