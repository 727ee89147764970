package churn

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// ixpTop builds a 6-node test topology: a 0–1–2–3–4 peer chain plus an IXP
// (node 5) with membership links to 2 and 3. Fixed 10 Gbps / 1 ms links.
func ixpTop(t testing.TB) (*topology.Topology, *routing.Metrics) {
	t.Helper()
	b := graph.NewBuilder(6)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(2, 5)
	b.AddEdge(3, 5)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 6),
		Tier:  []uint8{3, 3, 3, 3, 3, 0},
		Name:  make([]string, 6),
	}
	top.Class[5] = topology.ClassIXP
	g.Edges(func(u, v int) bool {
		if v == 5 {
			top.SetRel(u, v, topology.RelMember)
		} else {
			top.SetRel(u, v, topology.RelPeer)
		}
		return true
	})
	m := routing.DefaultMetrics(top, rand.New(rand.NewSource(1)))
	g.Edges(func(u, v int) bool {
		m.SetCapacity(int32(u), int32(v), 10)
		m.SetLatency(int32(u), int32(v), 1)
		return true
	})
	return top, m
}

func TestEventTypeRoundTrip(t *testing.T) {
	for _, typ := range []EventType{
		LinkFail, LinkRecover, NodeLeave, NodeJoin,
		MemberLeave, MemberJoin, BrokerFail, BrokerRecover,
	} {
		got, err := ParseEventType(typ.String())
		if err != nil || got != typ {
			t.Fatalf("ParseEventType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseEventType("nonsense"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.HasPrefix(EventType(99).String(), "event(") {
		t.Fatalf("unknown type string: %s", EventType(99))
	}
	if !LinkFail.IsLink() || !MemberJoin.IsLink() || BrokerFail.IsLink() || NodeLeave.IsLink() {
		t.Fatal("IsLink classification wrong")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Type: LinkFail, U: 3, V: 17},
		{Seq: 2, Type: BrokerFail, Node: 42},
		{Seq: 3, Type: NodeJoin, Node: 7},
	}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"type":"link_fail"`) {
		t.Fatalf("type not a string name: %s", b)
	}
	var back []Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip: %+v vs %+v", events, back)
	}
	var ev Event
	if err := json.Unmarshal([]byte(`{"type":"bogus"}`), &ev); err == nil {
		t.Fatal("bogus type decoded")
	}
}

// newState is NewState over fresh default metrics.
func newState(top *topology.Topology) *State {
	return NewState(top, routing.DefaultMetrics(top, nil))
}

func TestStateEffectiveLinkState(t *testing.T) {
	top, _ := ixpTop(t)
	st := newState(top)
	if st.LinkDown(0, 1) || downLinks(st) != 0 || st.downNodes != 0 {
		t.Fatal("fresh state has damage")
	}
	if live := st.LiveGraph(); live.NumNodes() != top.NumNodes() || live.NumEdges() != top.Graph.NumEdges() {
		t.Fatalf("fresh live graph has %d nodes, %d links; topology %d, %d",
			live.NumNodes(), live.NumEdges(), top.NumNodes(), top.Graph.NumEdges())
	}
	a := NewApplier(st)
	if _, err := a.Apply(Event{Type: LinkFail, U: 1, V: 0}); err != nil { // named from either end
		t.Fatal(err)
	}
	if !st.LinkDown(0, 1) || !st.LinkDown(1, 0) {
		t.Fatal("individually failed link not down")
	}
	if _, err := a.Apply(Event{Type: NodeLeave, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if !st.LinkDown(1, 2) || !st.LinkDown(2, 3) || !st.LinkDown(2, 5) {
		t.Fatal("links incident to a departed node not down")
	}
	if downLinks(st) != 4 || st.downNodes != 1 {
		t.Fatalf("down links %d nodes %d, want 4 and 1", downLinks(st), st.downNodes)
	}
	live := st.LiveGraph()
	if live.NumNodes() != top.NumNodes() {
		t.Fatal("live graph renumbered nodes")
	}
	if live.Degree(2) != 0 {
		t.Fatalf("departed node keeps %d live links", live.Degree(2))
	}
	if live.HasEdge(0, 1) || !live.HasEdge(3, 4) {
		t.Fatal("live graph edge set wrong")
	}
	// Avoid mask covers departed nodes and failed brokers.
	if _, err := a.Apply(Event{Type: BrokerFail, Node: 4}); err != nil {
		t.Fatal(err)
	}
	mask := st.avoidMaskInto(make([]bool, 1)) // a short buffer grows
	if !mask[2] || !mask[4] || mask[0] {
		t.Fatalf("avoid mask = %v", mask)
	}
	if got := st.DownBrokers(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("down brokers = %v", got)
	}
}

func TestApplierLinkFailRecover(t *testing.T) {
	top, m := ixpTop(t)
	st := NewState(top, m)
	a := NewApplier(st)

	blast, err := a.Apply(Event{Type: LinkFail, U: 1, V: 2})
	if err != nil {
		t.Fatal(err)
	}
	if blast.Size() != 1 || blast.BrokerPlane {
		t.Fatalf("blast = %+v", blast)
	}
	if !m.Failed(1, 2) {
		t.Fatal("metrics not mirrored on fail")
	}
	// Redundant fail: applies, empty blast, metrics unchanged.
	blast, err = a.Apply(Event{Type: LinkFail, U: 2, V: 1})
	if err != nil || blast.Size() != 0 {
		t.Fatalf("redundant fail: %+v, %v", blast, err)
	}
	blast, err = a.Apply(Event{Type: LinkRecover, U: 1, V: 2})
	if err != nil || blast.Size() != 1 {
		t.Fatalf("recover: %+v, %v", blast, err)
	}
	if m.Failed(1, 2) {
		t.Fatal("metrics not mirrored on recover")
	}
}

func TestApplierValidation(t *testing.T) {
	top, _ := ixpTop(t)
	a := NewApplier(newState(top))
	for _, bad := range []Event{
		{Type: LinkFail, U: 0, V: 99},   // node out of range
		{Type: LinkFail, U: -1, V: 1},   // negative node
		{Type: LinkFail, U: 0, V: 3},    // not a link
		{Type: MemberLeave, U: 0, V: 1}, // peer link, not membership
		{Type: NodeLeave, Node: 99},     // node out of range
		{Type: BrokerFail, Node: -2},    // negative node
		{Type: EventType(0)},            // unknown type
	} {
		if _, err := a.Apply(bad); err == nil {
			t.Errorf("accepted invalid event %+v", bad)
		}
	}
}

// A node departure downs all its live incident links; rejoining restores
// only the ones not also individually failed.
func TestApplierNodeChurnInterplay(t *testing.T) {
	top, m := ixpTop(t)
	st := NewState(top, m)
	a := NewApplier(st)

	if _, err := a.Apply(Event{Type: LinkFail, U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	blast, err := a.Apply(Event{Type: NodeLeave, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2's links: (1,2) already down, (2,3) and (2,5) flip.
	if blast.Size() != 2 {
		t.Fatalf("leave blast = %+v", blast)
	}
	blast, err = a.Apply(Event{Type: NodeJoin, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	if blast.Size() != 2 {
		t.Fatalf("join blast = %+v", blast)
	}
	if !st.LinkDown(1, 2) || st.LinkDown(2, 3) || st.LinkDown(2, 5) {
		t.Fatal("individually failed link recovered with the node")
	}
	if !m.Failed(1, 2) || m.Failed(2, 3) {
		t.Fatal("metrics out of sync after rejoin")
	}
}

func TestApplierMemberAndBrokerEvents(t *testing.T) {
	top, _ := ixpTop(t)
	st := newState(top)
	a := NewApplier(st)

	blast, err := a.Apply(Event{Type: MemberLeave, U: 2, V: 5})
	if err != nil || blast.Size() != 1 {
		t.Fatalf("member leave: %+v, %v", blast, err)
	}
	if !st.LinkDown(2, 5) {
		t.Fatal("membership link not down")
	}
	if _, err := a.Apply(Event{Type: MemberJoin, U: 5, V: 2}); err != nil {
		t.Fatal(err)
	}
	if st.LinkDown(2, 5) {
		t.Fatal("membership link not restored")
	}

	blast, err = a.Apply(Event{Type: BrokerFail, Node: 3})
	if err != nil || !blast.BrokerPlane || blast.Size() != 0 {
		t.Fatalf("broker fail: %+v, %v", blast, err)
	}
	if !st.BrokerDown(3) {
		t.Fatal("broker not down")
	}
	// Broker failure is process-level: the node's links stay up.
	if st.LinkDown(2, 3) || st.LinkDown(3, 4) {
		t.Fatal("broker failure downed links")
	}
	if _, err := a.Apply(Event{Type: BrokerRecover, Node: 3}); err != nil {
		t.Fatal(err)
	}
	if st.BrokerDown(3) {
		t.Fatal("broker not recovered")
	}
}

func TestApplyAllMergesAndStopsAtInvalid(t *testing.T) {
	top, _ := ixpTop(t)
	a := NewApplier(newState(top))
	blast, err := a.ApplyAll([]Event{
		{Type: LinkFail, U: 0, V: 1},
		{Type: LinkFail, U: 3, V: 4},
		{Type: BrokerFail, Node: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blast.Size() != 2 || !blast.BrokerPlane {
		t.Fatalf("merged blast = %+v", blast)
	}
	// Nodes deduped: {0,1,3,4,2}.
	if len(blast.Nodes) != 5 {
		t.Fatalf("merged nodes = %v", blast.Nodes)
	}
	_, err = a.ApplyAll([]Event{
		{Type: LinkRecover, U: 0, V: 1},
		{Type: LinkFail, U: 0, V: 3}, // not a link: stops here
		{Type: LinkFail, U: 1, V: 2},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	st := a.st
	if st.LinkDown(0, 1) {
		t.Fatal("events before the invalid one were not applied")
	}
	if st.LinkDown(1, 2) {
		t.Fatal("events after the invalid one were applied")
	}
}

// Two generators with the same seed over identically-churned states must
// produce identical streams (the replayability contract).
func TestGeneratorDeterminism(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers := func() []int32 { return []int32{1, 5, 9, 13} }
	mk := func() (*Generator, *Applier) {
		st := newState(top)
		return NewGenerator(st, brokers, GenConfig{Seed: 7}), NewApplier(st)
	}
	g1, a1 := mk()
	g2, a2 := mk()
	drawn := 0
	for i := 0; i < 500; i++ {
		e1, ok1 := g1.Next()
		e2, ok2 := g2.Next()
		if ok1 != ok2 || e1 != e2 {
			t.Fatalf("streams diverge at draw %d: %+v/%v vs %+v/%v", i, e1, ok1, e2, ok2)
		}
		if !ok1 {
			continue
		}
		drawn++
		if _, err := a1.Apply(e1); err != nil {
			t.Fatalf("generated event invalid: %+v: %v", e1, err)
		}
		if _, err := a2.Apply(e2); err != nil {
			t.Fatal(err)
		}
	}
	if drawn < 400 {
		t.Fatalf("only %d/500 draws produced events", drawn)
	}
}

// TestGeneratorStreamPinned pins the stream a churned daemon draws: the
// first 60 GenerateTrace(4) posts at seed 42 on the Table-2 tier, each post
// applied before the next is drawn, so recover draws choose among the links
// earlier posts failed. The hash is the stream's from when the failed links
// were a map whose keys were sorted on every recover draw; the k-th down bit
// must pick the same link.
func TestGeneratorStreamPinned(t *testing.T) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	var brokers []int32
	for u := int32(0); int(u) < top.NumNodes(); u += 997 {
		brokers = append(brokers, u)
	}
	st := newState(top)
	gen := NewGenerator(st, func() []int32 { return brokers }, GenConfig{Seed: 42})
	a := NewApplier(st)
	h := fnv.New64a()
	recovers := 0
	for post := 0; post < 60; post++ {
		events, err := gen.GenerateTrace(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			fmt.Fprintf(h, "%d %d %d %d %d\n", ev.Seq, ev.Type, ev.Node, ev.U, ev.V)
			if ev.Type == LinkRecover {
				recovers++
			}
		}
		if _, err := a.ApplyAll(events); err != nil {
			t.Fatalf("post %d: %v", post, err)
		}
	}
	if recovers < 10 {
		t.Fatalf("only %d link recoveries drawn: the down-link draw went unexercised", recovers)
	}
	const want = 0x8612e5f3143c0c3d
	if got := h.Sum64(); got != want {
		t.Fatalf("event stream hash %#x, want %#x", got, uint64(want))
	}
}

func TestGenerateTrace(t *testing.T) {
	top, _ := ixpTop(t)
	st := newState(top)
	g := NewGenerator(st, nil, GenConfig{Seed: 3})
	a := NewApplier(st)
	events, err := g.GenerateTrace(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("trace length %d, want 20", len(events))
	}
	last := 0
	for _, e := range events {
		if e.Seq <= last {
			t.Fatalf("seq not increasing: %+v after %d", e, last)
		}
		last = e.Seq
		if e.Type == BrokerFail || e.Type == BrokerRecover {
			t.Fatalf("broker event from nil brokers func: %+v", e)
		}
		if _, err := a.Apply(e); err != nil {
			t.Fatalf("generated event invalid: %+v: %v", e, err)
		}
	}
	if _, err := g.GenerateTrace(-1); err == nil {
		t.Fatal("negative trace length accepted")
	}
}

// Tick draws Poisson(genRate) batches: over many ticks the mean must land
// near that rate (loose 3-sigma-ish bounds, deterministic seed).
func TestTickPoissonRate(t *testing.T) {
	top, _ := ixpTop(t)
	st := newState(top)
	g := NewGenerator(st, nil, GenConfig{Seed: 11})
	a := NewApplier(st)
	total := 0
	const ticks = 300
	for i := 0; i < ticks; i++ {
		for _, e := range g.Tick() {
			total++
			if _, err := a.Apply(e); err != nil {
				t.Fatalf("tick event invalid: %+v: %v", e, err)
			}
		}
	}
	mean := float64(total) / ticks
	// Dry draws (nothing to recover on a tiny graph) pull the realized mean
	// below genRate; it must still be solidly positive and below the Poisson
	// mean.
	if mean < 1 || mean > genRate+0.5 {
		t.Fatalf("realized event rate %.2f implausible for a Poisson mean of %d", mean, genRate)
	}
}
