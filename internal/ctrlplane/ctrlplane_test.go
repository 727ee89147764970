package ctrlplane

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// lineTop builds a 5-node peer chain with fixed 10 Gbps / 1 ms links.
func lineTop(t testing.TB) (*topology.Topology, *routing.Metrics) {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i+1 < 5; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 5),
		Tier:  []uint8{3, 3, 3, 3, 3},
		Name:  make([]string, 5),
	}
	g.Edges(func(u, v int) bool {
		top.SetRel(u, v, topology.RelPeer)
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

func TestSetupCommitsAndLedgers(t *testing.T) {
	top, m := lineTop(t)
	brokers := []int32{1, 2, 3}
	p := New(top, m, brokers)

	before01 := p.Available(0, 1)
	s, err := p.Setup(context.Background(), 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if s.State != StateCommitted {
		t.Fatalf("state = %v, want committed", s.State)
	}
	if len(s.Path) != 5 {
		t.Fatalf("path = %v", s.Path)
	}
	if got := p.Available(0, 1); got != before01-4 {
		t.Fatalf("ledger(0,1) = %f, want %f", got, before01-4)
	}
	st := p.Stats()
	if st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// 4 hops, 3 distinct owners: 4 PREPARE + 4 PREPARE-ACK, then one
	// BATCH + BATCH-ACK per owner (decisions are acknowledged so the
	// coordinator can retry them under loss).
	if st.Messages != 14 {
		t.Fatalf("messages = %d, want 14", st.Messages)
	}
}

func TestContentionAbortsSecondSetup(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	if _, err := p.Setup(context.Background(), 0, 4, 7, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	// Only 3 Gbps left on every hop. Setup's own search is floored at the
	// bandwidth, so it finds no path and holds nothing...
	before := p.Available(2, 3)
	if _, err := p.Setup(context.Background(), 0, 4, 7, routing.Options{}); !errors.Is(err, routing.ErrNoPath) {
		t.Fatalf("oversubscribing Setup: %v, want ErrNoPath", err)
	}
	if st := p.Stats(); st.Aborts != 0 {
		t.Fatalf("a refused search aborted something: %+v", st)
	}
	// ...and a 7 Gbps setup handed the path (the daemon's pinned-snapshot
	// commit, whose path may be stale) must abort cleanly at the owners.
	err := p.CommitBatch(context.Background(), []BatchOp{{Kind: BatchSetup, Path: []int32{0, 1, 2, 3, 4}, Bandwidth: 7}})[0].Err
	if err == nil {
		t.Fatal("oversubscribing setup committed")
	}
	if !strings.Contains(err.Error(), "abort") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := p.Available(2, 3); got != before {
		t.Fatalf("aborted setup leaked holds: %f vs %f", got, before)
	}
	if st := p.Stats(); st.Aborts != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTeardownRestoresCapacity(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	s, err := p.Setup(context.Background(), 0, 4, 7, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Teardown(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if s.State != StateReleased {
		t.Fatalf("state = %v", s.State)
	}
	if got := p.Available(0, 1); got != 10 {
		t.Fatalf("capacity after teardown = %f, want 10", got)
	}
	// Capacity is reusable.
	if _, err := p.Setup(context.Background(), 0, 4, 9, routing.Options{}); err != nil {
		t.Fatalf("post-teardown setup failed: %v", err)
	}
	if err := p.Teardown(context.Background(), s); err == nil {
		t.Fatal("double teardown accepted")
	}
	if err := p.Teardown(context.Background(), nil); err == nil {
		t.Fatal("nil teardown accepted")
	}
}

func TestCrashedOwnerAbortsWithoutLeak(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	p.Crash(2)
	before := p.Available(0, 1) // owned by live agent 1
	if _, err := p.Setup(context.Background(), 0, 4, 2, routing.Options{}); err == nil {
		t.Fatal("setup through crashed owner committed")
	} else if !strings.Contains(err.Error(), "unresponsive") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Agent 1 placed a hold during PREPARE; the abort must release it.
	if got := p.Available(0, 1); got != before {
		t.Fatalf("crash-abort leaked a hold: %f vs %f", got, before)
	}
	p.Recover(2)
	if _, err := p.Setup(context.Background(), 0, 4, 2, routing.Options{}); err != nil {
		t.Fatalf("post-recovery setup failed: %v", err)
	}
}

func TestOwnerAssignment(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 3})
	// Link (1,2): only broker 1 -> owner 1. Link (2,3): only broker 3.
	// Link (0,1): broker 1.
	owner, ok := p.ownerOf(1, 2)
	if !ok || owner != 1 {
		t.Fatalf("owner(1,2) = %d, %v", owner, ok)
	}
	owner, ok = p.ownerOf(3, 2)
	if !ok || owner != 3 {
		t.Fatalf("owner(2,3) = %d, %v", owner, ok)
	}
	// Both endpoints brokers: lower id owns.
	p2 := New(top, m, []int32{1, 2})
	owner, ok = p2.ownerOf(2, 1)
	if !ok || owner != 1 {
		t.Fatalf("owner(1,2) with both brokers = %d, %v", owner, ok)
	}
	// No broker endpoint: unmanaged.
	if _, ok := p.ownerOf(0, 4); ok {
		t.Fatal("non-edge/unmanaged pair has an owner")
	}
}

func TestSetupValidation(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	if _, err := p.Setup(context.Background(), 0, 4, 0, routing.Options{}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := p.Setup(context.Background(), 0, 4, -1, routing.Options{}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	// No dominated path: brokers only at 1 -> node 4 unreachable.
	p2 := New(top, m, []int32{1})
	if _, err := p2.Setup(context.Background(), 0, 4, 1, routing.Options{}); err == nil {
		t.Fatal("setup without dominated path accepted")
	}
}

// Commits and releases must be visible to the shared metrics (so path
// queries observe residual capacity) and must advance the version counter
// (so path caches know to invalidate).
func TestCommitMirrorsMetricsAndBumpsVersion(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	if p.Version() != 0 {
		t.Fatalf("fresh plane version = %d", p.Version())
	}
	before := m.Available(1, 2)
	s, err := p.Setup(context.Background(), 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := p.Version()
	if v1 == 0 {
		t.Fatal("commit did not advance version")
	}
	if got := m.Available(1, 2); got != before-4 {
		t.Fatalf("metrics residual after commit = %f, want %f", got, before-4)
	}
	if err := p.Teardown(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if p.Version() <= v1 {
		t.Fatal("release did not advance version")
	}
	if got := m.Available(1, 2); got != before {
		t.Fatalf("metrics residual after release = %f, want %f", got, before)
	}
}

// Aborted setups leave both the agent ledger and the metrics untouched.
func TestAbortLeavesMetricsAndVersion(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	if _, err := p.Setup(context.Background(), 0, 4, 7, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	v := p.Version()
	residual := m.Available(1, 2)
	if _, err := p.Setup(context.Background(), 0, 4, 7, routing.Options{}); err == nil {
		t.Fatal("oversubscribing setup committed")
	}
	if p.Version() != v {
		t.Fatal("abort advanced version")
	}
	if got := m.Available(1, 2); got != residual {
		t.Fatalf("abort changed metrics residual: %f vs %f", got, residual)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgPrepare.String() != "PREPARE" || MsgBatch.String() != "BATCH" {
		t.Fatalf("names: %s %s", MsgPrepare, MsgBatch)
	}
	// 99 was never a type; 4 was COMMIT until the batch record replaced it.
	for _, typ := range []MsgType{99, 4} {
		if !strings.HasPrefix(typ.String(), "msg(") {
			t.Fatalf("unknown type name: %s", typ)
		}
	}
}

// End-to-end on a generated topology: many setups against a MaxSG broker
// set; the coalition ledger never goes negative and commits + aborts
// account for every request.
func TestControlPlaneOnInternetTopology(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := New(top, nil, brokers)
	rng := rand.New(rand.NewSource(2))
	requests, committed, aborted, unroutable := 0, 0, 0, 0
	var live []*Session
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(top.NumNodes()), rng.Intn(top.NumNodes())
		if src == dst {
			continue
		}
		requests++
		s, err := p.Setup(context.Background(), src, dst, 1+20*rng.Float64(), routing.Options{})
		switch {
		case err == nil:
			committed++
			live = append(live, s)
		case strings.Contains(err.Error(), "no dominated path"):
			unroutable++
		default:
			aborted++
		}
		// Occasionally tear one down.
		if len(live) > 0 && rng.Float64() < 0.3 {
			idx := rng.Intn(len(live))
			if err := p.Teardown(context.Background(), live[idx]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:idx], live[idx+1:]...)
		}
	}
	if committed == 0 {
		t.Fatal("no setup committed")
	}
	st := p.Stats()
	if st.Commits != committed || st.Aborts != aborted {
		t.Fatalf("stats %+v vs observed %d/%d", st, committed, aborted)
	}
	if requests != committed+aborted+unroutable {
		t.Fatalf("request accounting broken: %d != %d+%d+%d", requests, committed, aborted, unroutable)
	}
	// Ledgers non-negative everywhere.
	top.Graph.Edges(func(u, v int) bool {
		if p.Available(int32(u), int32(v)) < 0 {
			t.Fatalf("negative ledger on (%d,%d)", u, v)
		}
		return true
	})
}

// diamondTop builds 0–1–2 / 0–3–2 (two disjoint paths) with fixed metrics.
func diamondTop(t testing.TB) (*topology.Topology, *routing.Metrics) {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 2)
	g := b.MustBuild()
	top := &topology.Topology{
		Graph: g,
		Class: make([]topology.Class, 4),
		Tier:  []uint8{3, 3, 3, 3},
		Name:  make([]string, 4),
	}
	g.Edges(func(u, v int) bool {
		top.SetRel(u, v, topology.RelPeer)
		return true
	})
	m := routing.DefaultMetrics(top, rand.New(rand.NewSource(1)))
	g.Edges(func(u, v int) bool {
		m.SetCapacity(int32(u), int32(v), 10)
		m.SetLatency(int32(u), int32(v), 1)
		return true
	})
	// Bias the search towards the 0–1–2 side.
	m.SetLatency(0, 3, 5)
	m.SetLatency(3, 2, 5)
	return top, m
}

// SetBrokers must migrate agent ledgers: links that stay managed keep their
// reservation-adjusted availability, newly-managed links seed from the
// metrics residual, and the membership delta is reported.
func TestSetBrokersMigratesLedgers(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	s, err := p.Setup(context.Background(), 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := p.Version()
	added, removed := p.SetBrokers([]int32{2, 3, 4})
	if len(added) != 1 || added[0] != 4 || len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("delta = +%v -%v", added, removed)
	}
	if p.Version() <= v {
		t.Fatal("membership change did not advance version")
	}
	// (1,2) stays managed (owner moves 1 -> 2): availability preserved.
	if got := p.Available(1, 2); got != 6 {
		t.Fatalf("ledger(1,2) = %f, want 6", got)
	}
	// (4,3) is newly managed by 4's side: seeded from the metrics residual,
	// which carries the session's reservation.
	if got := p.Available(3, 4); got != 6 {
		t.Fatalf("ledger(3,4) = %f, want 6", got)
	}
	// (0,1) lost its only broker endpoint: unmanaged now.
	if got, ok := p.ownerOf(0, 1); ok {
		t.Fatalf("unmanaged link still owned by %d", got)
	}
	// The session's (0,1) hop has no owner anymore -> damaged.
	if !p.SessionDamaged(s) {
		t.Fatal("session with unmanaged hop not damaged")
	}
	// Same set again: no-op.
	if a2, r2 := p.SetBrokers([]int32{3, 2, 4}); a2 != nil || r2 != nil {
		t.Fatalf("no-op delta = +%v -%v", a2, r2)
	}
}

func TestRepathMovesReservations(t *testing.T) {
	top, m := diamondTop(t)
	p := New(top, m, []int32{1, 3})
	s, err := p.Setup(context.Background(), 0, 2, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Path[1] != 1 {
		t.Fatalf("setup took the slow side: %v", s.Path)
	}
	if p.SessionDamaged(s) {
		t.Fatal("fresh session reported damaged")
	}
	m.FailLink(0, 1)
	if !p.SessionDamaged(s) {
		t.Fatal("session over failed link not damaged")
	}
	old := s
	if s, err = p.Repath(context.Background(), s, routing.Options{}); err != nil {
		t.Fatalf("Repath: %v", err)
	}
	if s.State != StateCommitted || s.Path[1] != 3 || s.ID != old.ID || s.Epoch != old.Epoch+1 {
		t.Fatalf("repathed session = %+v", s)
	}
	// The old record is a released attempt, route untouched.
	if old.State != StateReleased || old.Path[1] != 1 {
		t.Fatalf("old record after repath = %+v", old)
	}
	// Reservations moved: old path fully released, new path holds 4.
	if got := m.Residual(0, 1); got != 10 {
		t.Fatalf("old hop residual = %f, want 10", got)
	}
	if got := p.Available(0, 3); got != 6 {
		t.Fatalf("new hop ledger = %f, want 6", got)
	}
	if st := p.Stats(); st.Repaths != 1 || st.RepathAborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// The plane floors its own searches at the session's bandwidth: a caller that
// passes no MinBandwidth still gets the detour with the capacity, not the
// minimum-latency path whose thin hop would nack the PREPARE.
func TestSetupFloorsItsOwnSearch(t *testing.T) {
	top, m := diamondTop(t)
	m.SetCapacity(1, 2, 1) // the fast side cannot carry 5
	p := New(top, m, []int32{1, 3})
	s, err := p.Setup(context.Background(), 0, 2, 5, routing.Options{})
	if err != nil {
		t.Fatalf("Setup with a feasible detour: %v", err)
	}
	if s.State != StateCommitted || s.Path[1] != 3 {
		t.Fatalf("session = %+v, want committed over 0-3-2", s)
	}
	if st := p.Stats(); st.Aborts != 0 {
		t.Fatalf("stats = %+v, want no abort", st)
	}
}

// Repath floors its search the same way, after releasing the session: the
// 6 Gbps it holds on 0-3-2 count as free again, the thin fast side does not.
func TestRepathFloorsItsOwnSearch(t *testing.T) {
	top, m := diamondTop(t)
	m.SetCapacity(1, 2, 1)
	p := New(top, m, []int32{1, 3})
	s, err := p.Setup(context.Background(), 0, 2, 6, routing.Options{MinBandwidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s, err = p.Repath(context.Background(), s, routing.Options{}); err != nil {
		t.Fatalf("Repath with a feasible path: %v", err)
	}
	if s.State != StateCommitted || s.Path[1] != 3 {
		t.Fatalf("repathed session = %+v, want committed over 0-3-2", s)
	}
	if got := p.Available(0, 3); got != 4 {
		t.Fatalf("ledger(0,3) = %f, want 4 (one reservation of 6)", got)
	}
	if st := p.Stats(); st.Repaths != 1 || st.RepathAborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// When no dominated path survives, Repath releases everything and returns no
// record — the caller then drops the session.
func TestRepathAbortsCleanly(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	s, err := p.Setup(context.Background(), 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.FailLink(2, 3) // the only path is cut
	if next, err := p.Repath(context.Background(), s, routing.Options{}); err == nil || next != nil {
		t.Fatalf("repath across a cut committed %+v", next)
	}
	if s.State != StateReleased {
		t.Fatalf("state = %v, want released", s.State)
	}
	// No leaked holds anywhere.
	top.Graph.Edges(func(u, v int) bool {
		if got := m.Residual(int32(u), int32(v)); got != 10 {
			t.Fatalf("leaked hold on (%d,%d): residual %f", u, v, got)
		}
		return true
	})
	if st := p.Stats(); st.RepathAborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if p.SessionDamaged(s) {
		t.Fatal("aborted session reported damaged")
	}
}

// A crashed owner marks its sessions damaged; a teardown still recovers the
// reservation in the metrics mirror and backlogs the agent's record.
func TestCrashedOwnerDamagesAndReleases(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	s, err := p.Setup(context.Background(), 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Crash(2)
	if !p.SessionDamaged(s) {
		t.Fatal("session owned by crashed broker not damaged")
	}
	if err := p.Teardown(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	top.Graph.Edges(func(u, v int) bool {
		if got := m.Residual(int32(u), int32(v)); got != 10 {
			t.Fatalf("crashed-owner teardown leaked on (%d,%d): %f", u, v, got)
		}
		return true
	})
	if !p.Crashed(2) {
		t.Fatal("Crashed(2) = false")
	}
}

func TestBrokersAccessor(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{3, 1, 2})
	got := p.Brokers()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Brokers() = %v, want ascending [1 2 3]", got)
	}
}

// TestNoPathIsErrNoPath pins the clean-miss contract end to end: every
// search that finds no dominated path wraps routing.ErrNoPath, the control
// plane's own wrap keeps it matchable, and the rendered text — which
// clients and cmd/benchsuite's verifier read in response bodies — does not
// move by a byte.
func TestNoPathIsErrNoPath(t *testing.T) {
	top, m := lineTop(t)
	brokers := []int32{1, 3} // every chain link is dominated; (1,2) is the cut
	e := routing.NewEngine(top, m, brokers)
	p := New(top, m, brokers)
	ctx := context.Background()
	s, err := p.Setup(ctx, 0, 4, 1, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.FailLink(1, 2)
	for _, tc := range []struct {
		name string
		err  func() error
		want string
	}{
		{"BestPath", func() error { _, err := e.BestPath(0, 4, routing.Options{}); return err },
			"routing: no dominated path 0 -> 4 within constraints"},
		{"KAlternatives", func() error { _, err := e.KAlternatives(0, 4, 2, routing.Options{}); return err },
			"routing: no dominated path 0 -> 4"},
		{"Plane.Setup", func() error { _, err := p.Setup(ctx, 0, 4, 1, routing.Options{}); return err },
			"ctrlplane: no dominated path: routing: no dominated path 0 -> 4 within constraints"},
		{"Plane.Repath", func() error { _, err := p.Repath(ctx, s, routing.Options{}); return err },
			"ctrlplane: session 1 aborted: no dominated path survives: routing: no dominated path 0 -> 4 within constraints"},
	} {
		err := tc.err()
		if err == nil {
			t.Fatalf("%s: found a path across a failed cut", tc.name)
		}
		if !errors.Is(err, routing.ErrNoPath) {
			t.Errorf("%s: %v does not match routing.ErrNoPath", tc.name, err)
		}
		if err.Error() != tc.want {
			t.Errorf("%s: text %q, want %q", tc.name, err, tc.want)
		}
	}
	// A miss that is not a missing path must not match.
	if _, err := e.BestPath(0, 99, routing.Options{}); err == nil || errors.Is(err, routing.ErrNoPath) {
		t.Errorf("out-of-range endpoint: %v", err)
	}
}
