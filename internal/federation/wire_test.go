package federation

import (
	"context"
	"testing"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// peerTap records every message put on the inter-region bus — also the ones
// a partition then eats — in order.
type peerTap struct {
	ctrlplane.Transport
	sent []ctrlplane.Message
	// seen and kinds count message types and decision-entry kinds over the
	// tap's whole life, so a test can tell its scenarios really reached the
	// corners they claim to.
	seen  map[ctrlplane.MsgType]int
	kinds map[ctrlplane.BatchEntryKind]int
}

func (t *peerTap) Send(m ctrlplane.Message) {
	t.sent = append(t.sent, m)
	t.Transport.Send(m)
}

// tapped builds a fabric on a fault-free fault transport (for its Partition
// and OnDeliver seams) with a tap on the peer bus.
func tapped(t *testing.T, nBorders int, rc ctrlplane.RetryConfig, tap *peerTap) (*Fabric, *ctrlplane.FaultTransport) {
	t.Helper()
	f := fedFabric(t, 4, nBorders, Config{Seed: 7, Retry: rc, PeerFaults: &ctrlplane.FaultConfig{Seed: 7}})
	tap.Transport, tap.sent = f.d.Transport, nil
	f.d.Transport = tap
	return f, f.peerFT
}

// requests returns how many home→transit requests of each kind were sent
// since the last call, failing the test on any message that is not part of
// the one peer protocol: X-PREPARE and the decision record out, their acks
// and refusals back, gossip beside them.
func (t *peerTap) requests(tb testing.TB, step string) (prepares, records int) {
	tb.Helper()
	for _, m := range t.sent {
		t.seen[m.Type]++
		switch m.Type {
		case ctrlplane.MsgXPrepare:
			prepares++
		case ctrlplane.MsgBatch:
			records++
			if len(m.Batch) != 1 || m.Batch[0].ID != m.SessionID || m.Batch[0].Epoch != m.Epoch {
				tb.Fatalf("%s: record %+v does not name exactly its one session", step, m)
			}
			t.kinds[m.Batch[0].Kind]++
		case ctrlplane.MsgXPrepareAck, ctrlplane.MsgXPrepareNack, ctrlplane.MsgBatchAck, ctrlplane.MsgBatchNack:
			if m.AckFor == 0 {
				tb.Fatalf("%s: reply %s answers nothing", step, m.Type)
			}
		case ctrlplane.MsgGossip:
		default:
			tb.Fatalf("%s: %s %d->%d on the peer wire; the protocol is X-PREPARE and BATCH only", step, m.Type, m.From, m.To)
		}
	}
	t.sent = nil
	return prepares, records
}

// quiesce reconciles the fabric and checks conservation.
func quiesce(t *testing.T, f *Fabric, step string) {
	t.Helper()
	if err := f.Reconcile(context.Background()); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// lapse ages region r's prepared holds past their lease and lets its sweep
// presume abort.
func lapse(f *Fabric, r int) {
	for i := 0; i < f.d.Retry.LeaseTTL+2; i++ {
		f.Region(r).Plane.Tick()
	}
}

// TestOnePeerProtocolOnTheWire drives every way a stitched session's fate is
// settled over a tapped peer bus: whatever the path — commit, abort on a
// nack, a late commit refused on the spot or out of the backlog, a region
// crashed under the commit, teardown, heal — home regions speak X-PREPARE
// and the one decision record and nothing else, one request per transit
// region per step.
func TestOnePeerProtocolOnTheWire(t *testing.T) {
	ctx := context.Background()
	tap := &peerTap{seen: map[ctrlplane.MsgType]int{}, kinds: map[ctrlplane.BatchEntryKind]int{}}
	const transit = 2 // as(0,2) -> as(2,2) crosses regions 1 and 2
	setup := func(f *Fabric, bw float64) (*Session, error) { return f.Setup(ctx, 2, 10, bw, routing.Options{}) }
	commitTo := func(m ctrlplane.Message, r int) bool {
		return carries(m, ctrlplane.EntryCommit) && m.To == ctrlplane.PeerAddr(r)
	}

	t.Run("setup, teardown, gossip", func(t *testing.T) {
		f, _ := tapped(t, 1, ctrlplane.RetryConfig{}, tap)
		s, err := setup(f, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p, r := tap.requests(t, "Setup"); p != transit || r != transit {
			t.Fatalf("Setup cost %d X-PREPAREs and %d records, want %d and %d", p, r, transit, transit)
		}
		if err := f.Teardown(ctx, s); err != nil {
			t.Fatal(err)
		}
		if p, r := tap.requests(t, "Teardown"); p != 0 || r != transit {
			t.Fatalf("Teardown cost %d X-PREPAREs and %d records, want 0 and %d", p, r, transit)
		}
		f.gossip()
		tap.requests(t, "gossip")
		quiesce(t, f, "teardown")
	})

	t.Run("abort on nack", func(t *testing.T) {
		f, _ := tapped(t, 1, ctrlplane.RetryConfig{}, tap)
		// Saturate region 1's links into its exit border behind its
		// snapshot's back: the stitch still quotes the segment, the
		// X-PREPARE is refused.
		reg := f.Region(1)
		var local []*ctrlplane.Session
		for _, g := range [][2]int32{{4, 16}, {5, 16}} {
			u, _ := reg.Local(g[0])
			v, _ := reg.Local(g[1])
			r := reg.Plane.CommitBatch(ctx, []ctrlplane.BatchOp{{Kind: ctrlplane.BatchSetup, Path: []int32{u, v}, Bandwidth: 50}})[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			local = append(local, r.Session)
		}
		if _, err := setup(f, 60); err == nil {
			t.Fatal("setup through a saturated transit region succeeded")
		}
		if p, r := tap.requests(t, "nacked Setup"); p != transit || r != transit {
			t.Fatalf("nacked Setup cost %d X-PREPAREs and %d records, want %d and %d aborts", p, r, transit, transit)
		}
		for _, s := range local {
			if err := reg.Plane.Teardown(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, f, "abort on nack")
	})

	t.Run("late commit refused", func(t *testing.T) {
		f, ft := tapped(t, 1, ctrlplane.RetryConfig{LeaseTTL: 3}, tap)
		// Region 2's lease lapses while its commit record is on the wire.
		lapsed := false
		ft.OnDeliver = func(m ctrlplane.Message) {
			if commitTo(m, 2) && !lapsed {
				lapsed = true
				lapse(f, 2)
			}
		}
		if _, err := setup(f, 5); err == nil {
			t.Fatal("setup committed over a lapsed transit lease")
		}
		tap.requests(t, "refused Setup")
		if st := f.Stats(); st.CommitNacks != 1 || st.Rollbacks != 1 || st.Commits != 0 {
			t.Fatalf("stats %+v, want one commit nack and one rollback", st)
		}
		quiesce(t, f, "late commit refused")
		tap.requests(t, "reconcile")
	})

	t.Run("backlogged commit refused", func(t *testing.T) {
		f, ft := tapped(t, 1, ctrlplane.RetryConfig{LeaseTTL: 3, MaxAttempts: 2}, tap)
		tr := obs.NewTracer(1 << 10)
		f.SetTracer(tr)
		// Region 2 drops off the bus once its prepare is acked: its commit
		// record is sent, undeliverable, backlogged.
		ft.OnDeliver = func(m ctrlplane.Message) {
			if m.Type == ctrlplane.MsgXPrepareAck && m.From == ctrlplane.PeerAddr(2) {
				ft.Partition(ctrlplane.PeerAddr(2), true)
			}
		}
		sctx, root := tr.Root(ctx, "test.fedsetup", 0)
		s, err := f.Setup(sctx, 2, 10, 5, routing.Options{})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if st := f.Stats(); st.Backlogged != 1 || st.Commits != 1 {
			t.Fatalf("stats %+v, want a committed session with one backlogged record", st)
		}
		tap.requests(t, "partitioned Setup")
		// Its lease lapses while it is away; back on the bus it refuses the
		// re-driven commit and the whole session rolls back.
		lapse(f, 2)
		ft.Partition(ctrlplane.PeerAddr(2), false)
		quiesce(t, f, "backlogged commit refused")
		tap.requests(t, "reconcile")
		if st, rec := f.Stats(), f.Session(s.ID); st.Rollbacks != 1 || rec != nil {
			t.Fatalf("session %+v, stats %+v: want the session rolled back and gone", rec, st)
		}
		// The rollback and the aborts it sent ride the setup's trace.
		names := map[string]int{}
		for _, sp := range tr.Trace(root.TraceID) {
			names[sp.Name]++
		}
		if names["federation.rollback"] != 1 || names["federation.sub_abort"] == 0 {
			t.Fatalf("setup trace %v misses the rollback or its transit-side aborts", names)
		}
	})

	t.Run("region crash mid-commit", func(t *testing.T) {
		f, ft := tapped(t, 1, ctrlplane.RetryConfig{LeaseTTL: 500, MaxAttempts: 2}, tap)
		ft.OnDeliver = func(m ctrlplane.Message) {
			// Inside Setup's pump, under its lock: the unlocked halves.
			if commitTo(m, 1) && f.stats.RegionCrashes == 0 {
				f.crashRegion(1)
			}
		}
		s, err := setup(f, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rec := f.Region(1).subs[fedKey{s.ID, s.Epoch}]; rec == nil || rec.State != ctrlplane.StatePrepared || f.Stats().Backlogged != 1 {
			t.Fatalf("region 1 record %+v, stats %+v: want a prepared record and its commit backlogged", rec, f.Stats())
		}
		tap.requests(t, "Setup over a crashing region")
		f.RecoverRegion(1)
		quiesce(t, f, "recover")
		if rec := f.Region(1).subs[fedKey{s.ID, s.Epoch}]; rec == nil || rec.State != ctrlplane.StateCommitted {
			t.Fatalf("region 1 record %+v after recovery, want committed", rec)
		}
		if _, r := tap.requests(t, "reconcile"); r != 1 {
			t.Fatalf("recovery re-drove %d records, want the one commit", r)
		}
		if err := f.Teardown(ctx, s); err != nil {
			t.Fatal(err)
		}
		tap.requests(t, "Teardown")
		quiesce(t, f, "teardown")
	})

	t.Run("heal", func(t *testing.T) {
		f, _ := tapped(t, 2, ctrlplane.RetryConfig{LeaseTTL: 500}, tap)
		s, err := setup(f, 5)
		if err != nil {
			t.Fatal(err)
		}
		tap.requests(t, "Setup")
		reg := f.Region(1)
		l, _ := reg.Local(s.Stitched.Segments[1].Nodes[0])
		reg.Plane.Crash(l)
		if rep := f.Heal(ctx); rep.Restitched != 1 {
			t.Fatalf("heal report %+v, want 1 restitched", rep)
		}
		// Break-before-make: a release record per old segment, then a fresh
		// two-level commit under the next epoch.
		if p, r := tap.requests(t, "Heal"); p != transit || r != 2*transit {
			t.Fatalf("Heal cost %d X-PREPAREs and %d records, want %d and %d", p, r, transit, 2*transit)
		}
		reg.Plane.Recover(l)
		quiesce(t, f, "heal")
	})

	// The scenarios reached every corner of the protocol.
	for _, typ := range []ctrlplane.MsgType{ctrlplane.MsgXPrepare, ctrlplane.MsgXPrepareAck, ctrlplane.MsgXPrepareNack,
		ctrlplane.MsgBatch, ctrlplane.MsgBatchAck, ctrlplane.MsgBatchNack, ctrlplane.MsgGossip} {
		if tap.seen[typ] == 0 {
			t.Errorf("no %s crossed the peer wire", typ)
		}
	}
	if tap.seen[ctrlplane.MsgBatchNack] < 2 {
		t.Errorf("%d decision records refused, want the late and the backlogged commit", tap.seen[ctrlplane.MsgBatchNack])
	}
	for _, k := range []ctrlplane.BatchEntryKind{ctrlplane.EntryCommit, ctrlplane.EntryAbort, ctrlplane.EntryRelease} {
		if tap.kinds[k] == 0 {
			t.Errorf("no decision record of kind %d crossed the peer wire", k)
		}
	}
}

// tickTap records the fabric tick of every X-PREPARE send, by message id.
type tickTap struct {
	ctrlplane.Transport
	f     *Fabric
	sends map[uint64][]int
}

func (t *tickTap) Send(m ctrlplane.Message) {
	if m.Type == ctrlplane.MsgXPrepare {
		t.sends[m.MsgID] = append(t.sends[m.MsgID], t.f.d.Now())
	}
	t.Transport.Send(m)
}

// TestPeerRetryJitterReachesEngine checks Config.Retry is the peer engine's
// whole tuning, RetryJitterTicks included: two X-PREPAREs black-holed
// together retry in lockstep, one tick apart, with jitter off — the schedule
// every fixed-seed chaos run replays — and on different ticks with it on.
func TestPeerRetryJitterReachesEngine(t *testing.T) {
	const attempts = 5
	schedules := func(jitter int) [][]int {
		f := fedFabric(t, 4, 1, Config{Seed: 7,
			Retry:      ctrlplane.RetryConfig{MaxAttempts: attempts, BreakerThreshold: 100, RetryJitterTicks: jitter},
			PeerFaults: &ctrlplane.FaultConfig{Seed: 7}})
		tap := &tickTap{Transport: f.d.Transport, f: f, sends: map[uint64][]int{}}
		f.d.Transport = tap
		f.peerFT.Partition(ctrlplane.PeerAddr(1), true)
		f.peerFT.Partition(ctrlplane.PeerAddr(2), true)
		if _, err := f.Setup(context.Background(), 2, 10, 5, routing.Options{}); err == nil {
			t.Fatal("setup succeeded against black-holed regions")
		}
		var out [][]int
		for _, ticks := range tap.sends {
			if len(ticks) != attempts {
				t.Fatalf("jitter %d: an X-PREPARE was sent %d times, want its whole budget of %d", jitter, len(ticks), attempts)
			}
			out = append(out, ticks)
		}
		if len(out) != 2 {
			t.Fatalf("jitter %d: %d X-PREPAREs, want 2 colliding retriers", jitter, len(out))
		}
		return out
	}
	lockstep := schedules(0)
	for i, tick := range lockstep[0] {
		if lockstep[1][i] != tick || tick != lockstep[0][0]+i {
			t.Fatalf("jitter off: retriers not in lockstep one tick apart: %v", lockstep)
		}
	}
	jittered := schedules(4)
	same := true
	for i := range jittered[0] {
		same = same && jittered[0][i] == jittered[1][i]
	}
	if same {
		t.Fatalf("jitter on: both retriers still on one schedule: %v", jittered)
	}
}
