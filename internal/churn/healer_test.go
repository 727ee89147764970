package churn

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

type countingInvalidator struct{ n int }

func (c *countingInvalidator) Invalidate() { c.n++ }

// oneEpoch is the epoch source of a test whose topology never publishes: a
// heal pass walks every session it has not stamped yet.
func oneEpoch() uint64 { return 1 }

func TestNewHealerValidation(t *testing.T) {
	top, m := ixpTop(t)
	st := NewState(top, m)
	plane := ctrlplane.New(top, m, []int32{1, 2, 3})
	for _, target := range []float64{0, -0.5, 1.01} {
		if _, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: target, Epoch: oneEpoch}); err == nil {
			t.Errorf("target %f accepted", target)
		}
	}
	if _, err := NewHealer(nil, plane, nil, nil, HealerConfig{Target: 0.9, Epoch: oneEpoch}); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := NewHealer(st, nil, nil, nil, HealerConfig{Target: 0.9, Epoch: oneEpoch}); err == nil {
		t.Error("nil plane accepted")
	}
	if _, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: 0.9}); err == nil {
		t.Error("nil epoch source accepted")
	}
	if _, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: 0.9, Epoch: oneEpoch}); err != nil {
		t.Errorf("valid config refused: %v", err)
	}
}

// The core self-healing contract: after broker failures and link damage,
// one Heal pass restores the connectivity target with a coalition that
// excludes the failed broker, re-paths or cleanly aborts every damaged
// session, and leaks nothing in the capacity ledger.
func TestHealRepairsBrokerPlaneAndSessions(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	plane := ctrlplane.New(top, m, brokers)
	st := NewState(top, m)
	sessions := queryplane.NewSessionStore(4)
	inval := &countingInvalidator{}
	target := coverage.SaturatedConnectivity(top.Graph, brokers)

	h, err := NewHealer(st, plane, sessions, inval, HealerConfig{Target: target, Epoch: oneEpoch})
	if err != nil {
		t.Fatal(err)
	}

	// Establish a population of sessions.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 120 && sessions.Len() < 30; i++ {
		src, dst := rng.Intn(top.NumNodes()), rng.Intn(top.NumNodes())
		if src == dst {
			continue
		}
		if s, err := plane.Setup(context.Background(), src, dst, 0.5+rng.Float64(), routing.Options{}); err == nil {
			sessions.Put(s)
		}
	}
	if sessions.Len() < 10 {
		t.Fatalf("only %d sessions established", sessions.Len())
	}

	// Damage: kill the busiest broker (first one appearing on a session
	// path) and fail the first hop of a handful of sessions.
	a := NewApplier(st)
	var dead int32 = -1
	isBroker := make(map[int32]bool, len(brokers))
	for _, b := range brokers {
		isBroker[b] = true
	}
	for _, s := range sessions.List() {
		for _, n := range s.Path {
			if isBroker[n] {
				dead = n
				break
			}
		}
		if dead >= 0 {
			break
		}
	}
	if dead < 0 {
		t.Fatal("no session path touches a broker?")
	}
	events := []Event{{Type: BrokerFail, Node: dead}}
	for _, s := range sessions.List()[:5] {
		events = append(events, Event{Type: LinkFail, U: s.Path[0], V: s.Path[1]})
	}
	if _, err := a.ApplyAll(events); err != nil {
		t.Fatal(err)
	}

	before := sessions.Len()
	rep, err := h.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TargetMet || rep.Connectivity < target {
		t.Fatalf("heal missed target: %+v (target %f)", rep, target)
	}
	if rep.SessionsChecked == 0 {
		t.Fatal("damage touched sessions but none were checked")
	}
	if rep.SessionsRepaired+rep.SessionsAborted != rep.SessionsChecked {
		t.Fatalf("session accounting: %+v", rep)
	}
	if sessions.Len() != before-rep.SessionsAborted {
		t.Fatalf("aborted sessions not dropped: %d vs %d-%d", sessions.Len(), before, rep.SessionsAborted)
	}
	if inval.n == 0 {
		t.Fatal("query plane not invalidated")
	}

	// The dead broker is out of the coalition; no surviving session is
	// still damaged or routed over a failed link.
	for _, b := range plane.Brokers() {
		if b == dead {
			t.Fatalf("failed broker %d still in coalition", dead)
		}
	}
	for _, s := range sessions.List() {
		if s.State != ctrlplane.StateCommitted {
			t.Fatalf("stored session %d in state %v", s.ID, s.State)
		}
		if plane.SessionDamaged(s) {
			t.Fatalf("session %d still damaged after heal", s.ID)
		}
		for i := 0; i+1 < len(s.Path); i++ {
			if st.LinkDown(s.Path[i], s.Path[i+1]) {
				t.Fatalf("session %d routed over downed link (%d,%d)", s.ID, s.Path[i], s.Path[i+1])
			}
		}
	}

	// Ledger conservation: tear everything down and the reservations must
	// cancel out exactly — residual == capacity on every link, including
	// the failed ones (their holds were released during re-pathing).
	for _, s := range sessions.List() {
		if err := plane.Teardown(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	top.Graph.Edges(func(u, v int) bool {
		if got, want := m.Residual(int32(u), int32(v)), m.Capacity(int32(u), int32(v)); got != want {
			t.Fatalf("leaked reservation on (%d,%d): residual %f, capacity %f", u, v, got, want)
		}
		return true
	})

	mt := &h.Metrics
	if heals, maintains := mt.HealPasses.Load(), mt.MaintainPasses.Load(); heals != 1 || maintains != 1 {
		t.Fatalf("metrics: %d heal passes, %d maintain passes", heals, maintains)
	}
	if repaired, aborted := mt.SessionsRepaired.Load(), mt.SessionsAborted.Load(); repaired != uint64(rep.SessionsRepaired) || aborted != uint64(rep.SessionsAborted) {
		t.Fatalf("metrics/report mismatch: %d repaired, %d aborted vs %+v", repaired, aborted, rep)
	}
	if mt.Repairs.Count() != 1 || mt.Repairs.Quantile(0.5) <= 0 {
		t.Fatal("no repair duration recorded")
	}
}

// The session sweep is keyed to the epoch source (every non-test caller
// wires the publisher's): a session stamped clean at the current
// epoch is not walked again until the epoch moves, and damage that lands
// under a new epoch is found and repaired.
func TestHealSkipsSessionsStampedThisEpoch(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	plane := ctrlplane.New(top, m, brokers)
	st := NewState(top, m)
	sessions := queryplane.NewSessionStore(4)
	var epoch atomic.Uint64
	epoch.Store(1)
	h, err := NewHealer(st, plane, sessions, nil, HealerConfig{
		Target: coverage.SaturatedConnectivity(top.Graph, brokers),
		Epoch:  epoch.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i+1 < len(brokers) && sessions.Len() < 6; i += 2 {
		if s, err := plane.Setup(ctx, int(brokers[i]), int(brokers[i+1]), 0.5, routing.Options{}); err == nil {
			sessions.Put(s)
		}
	}
	list := sessions.List()
	if len(list) < 2 {
		t.Fatalf("only %d sessions established", len(list))
	}
	a, b := list[0], list[1]
	applier := NewApplier(st)
	failFirstHop := func(s *ctrlplane.Session) {
		t.Helper()
		if _, err := applier.ApplyAll([]Event{{Type: LinkFail, U: s.Path[0], V: s.Path[1]}}); err != nil {
			t.Fatal(err)
		}
		if !plane.SessionDamaged(s) {
			t.Fatalf("session %d not damaged by its first hop failing", s.ID)
		}
	}

	// Epoch 1: a is damaged and repaired; everything else is stamped clean.
	failFirstHop(a)
	rep, err := h.Heal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsChecked != 1 || rep.SessionsRepaired != 1 {
		t.Fatalf("first heal: %+v, want one session checked and repaired", rep)
	}
	for _, s := range list {
		if got := sessions.CheckedAt(s.ID); got != 1 {
			t.Fatalf("session %d stamped at epoch %d, want 1", s.ID, got)
		}
	}

	// Still epoch 1: the sweep skips every stamped session without walking
	// it, so damage that no publication announced goes unseen.
	failFirstHop(b)
	if rep, err = h.Heal(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.SessionsChecked != 0 || !plane.SessionDamaged(b) {
		t.Fatalf("second heal in one epoch: %+v (b damaged=%v), want nothing checked", rep, plane.SessionDamaged(b))
	}

	// The epoch moves, as it does whenever damage is published: b is found.
	epoch.Store(2)
	if rep, err = h.Heal(ctx); err != nil {
		t.Fatal(err)
	}
	healed, ok := sessions.Get(b.ID)
	if rep.SessionsChecked != 1 || rep.SessionsRepaired != 1 || !ok || healed == b || plane.SessionDamaged(healed) {
		t.Fatalf("heal under the new epoch: %+v (b's record %+v), want b repaired", rep, healed)
	}
	if got := sessions.CheckedAt(b.ID); got != 2 {
		t.Fatalf("repaired session stamped at epoch %d, want 2", got)
	}
}

// When the damage disconnects the graph, no coalition can reach the target:
// the healer must fall back to the survivors (best effort) and say so.
func TestHealFallsBackWhenTargetUnreachable(t *testing.T) {
	top, m := ixpTop(t)
	brokers := []int32{1, 2, 3}
	plane := ctrlplane.New(top, m, brokers)
	st := NewState(top, m)
	target := coverage.SaturatedConnectivity(top.Graph, brokers)
	if target <= 0 {
		t.Fatalf("degenerate initial target %f", target)
	}
	h, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: target, Epoch: oneEpoch})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 is a cut vertex (and node 5's paths go through 2 or 3):
	// removing it splits the chain, so the initial connectivity is gone.
	a := NewApplier(st)
	if _, err := a.ApplyAll([]Event{
		{Type: NodeLeave, Node: 2},
		{Type: BrokerFail, Node: 3},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TargetMet {
		t.Fatalf("target reported met on a split graph: %+v", rep)
	}
	if rep.Connectivity >= target {
		t.Fatalf("connectivity %f did not drop below target %f", rep.Connectivity, target)
	}
	// Survivors kept: 1 stays (2 departed, 3's process failed).
	got := plane.Brokers()
	for _, b := range got {
		if b == 3 || b == 2 {
			t.Fatalf("dead/departed broker kept: %v", got)
		}
	}
}

// Broker recovery: after the failed broker comes back, a heal pass may
// rehire it (it is no longer avoided) and the target holds again.
func TestHealAfterRecovery(t *testing.T) {
	top, m := ixpTop(t)
	brokers := []int32{1, 2, 3}
	plane := ctrlplane.New(top, m, brokers)
	st := NewState(top, m)
	target := coverage.SaturatedConnectivity(top.Graph, brokers)
	h, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: target, Epoch: oneEpoch})
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(st)
	if _, err := a.Apply(Event{Type: BrokerFail, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Heal(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(Event{Type: BrokerRecover, Node: 2}); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Heal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TargetMet {
		t.Fatalf("target unmet after full recovery: %+v", rep)
	}
}

// HealWithBlast must repair localized damage through the incremental
// maintain path (not a full reselect), reach the target, and account the
// pass in the incremental-repair counters.
func TestHealWithBlastIncrementalRepair(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := routing.DefaultMetrics(top, nil)
	plane := ctrlplane.New(top, m, brokers)
	st := NewState(top, m)
	target := coverage.SaturatedConnectivity(top.Graph, brokers)
	h, err := NewHealer(st, plane, nil, nil, HealerConfig{Target: target, Epoch: oneEpoch})
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(st)
	dead := brokers[len(brokers)/2]
	blast, err := a.ApplyAll([]Event{{Type: BrokerFail, Node: dead}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.HealWithBlast(context.Background(), blast)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incremental {
		t.Fatalf("expected incremental pass: %+v", rep)
	}
	if rep.Connectivity < target {
		t.Fatalf("repair landed at %f, strict floor %f", rep.Connectivity, target)
	}
	oracle := coverage.SaturatedConnectivity(st.LiveGraph(), plane.Brokers())
	if rep.Connectivity > oracle+1e-12 {
		t.Fatalf("reported connectivity %f exceeds oracle %f", rep.Connectivity, oracle)
	}
	for _, b := range plane.Brokers() {
		if b == dead {
			t.Fatalf("failed broker %d still in coalition", dead)
		}
	}
	if inc, full := h.Metrics.IncrementalRepairs.Load(), h.Metrics.FullReselects.Load(); inc+full != 1 {
		t.Fatalf("repair accounting: %d incremental, %d full", inc, full)
	}
}
