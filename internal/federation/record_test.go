package federation

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
)

// bounce crashes region r and brings it straight back: whatever its
// sub-coordinator kept beside the durable records is gone.
func bounce(f *Fabric, r int) {
	f.CrashRegion(r)
	f.RecoverRegion(r)
}

// TestHealSeesDamageAfterRegionBounce is the regression test for damage a
// region bounce used to hide: the healer asked a region's plane about a
// segment only through the live session handle, and a bounced region had
// none, so a crashed broker under its segment left the session standing on a
// dead path forever (heal report: checked 1, restitched 0, aborted 0).
func TestHealSeesDamageAfterRegionBounce(t *testing.T) {
	for _, tc := range []struct {
		name string
		// victim picks the node of region 1's segment [joint, interior, joint]
		// to crash in region 1's plane.
		victim func(seg Segment) int32
	}{
		{"interior broker", func(seg Segment) int32 { return seg.Nodes[1] }},
		{"border joint", func(seg Segment) int32 { return seg.Nodes[0] }},
	} {
		for _, bounced := range []bool{false, true} {
			name := tc.name
			if bounced {
				name += ", bounced"
			}
			t.Run(name, func(t *testing.T) {
				f := fedFabric(t, 4, 2, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 500}})
				ctx := context.Background()
				s, err := f.Setup(ctx, 2, 10, 5, routing.Options{})
				if err != nil {
					t.Fatal(err)
				}
				seg := s.Stitched.Segments[1]
				if seg.Region != 1 || len(seg.Nodes) != 3 {
					t.Fatalf("segment 1 is %+v, want region 1's joint-interior-joint", seg)
				}
				if bounced {
					bounce(f, 1)
				}
				reg := f.Region(1)
				l, ok := reg.Local(tc.victim(seg))
				if !ok || !slices.Contains(reg.Plane.Brokers(), l) {
					t.Fatalf("node %d is not a broker of region 1", tc.victim(seg))
				}
				reg.Plane.Crash(l)
				rep := f.Heal(ctx)
				if rep.Checked != 1 || rep.Restitched+rep.Aborted != 1 {
					t.Fatalf("heal report %+v: the session stands on a crashed broker, want it restitched or aborted", rep)
				}
				if rep.Restitched == 1 {
					if healed := f.Session(s.ID); healed == nil || slices.Contains(healed.Stitched.Nodes, tc.victim(seg)) {
						t.Fatalf("healed session %+v still crosses crashed broker %d", healed, tc.victim(seg))
					}
				}
				reg.Plane.Recover(l)
				quiesce(t, f, "heal")
			})
		}
	}
}

// TestDecisionsSameAfterRegionBounce is the differential test under the
// one-record design: every decision a sub-coordinator can apply leaves the
// same record, the same ledger on every hop of the segment and a green
// conservation check whether or not the region lost its volatile state
// between the prepare and the decision. The record is the region-local
// session PrepareOnPath handed out; this pins that there is nothing beside it
// for a bounce to lose.
func TestDecisionsSameAfterRegionBounce(t *testing.T) {
	const (
		commit  = ctrlplane.EntryCommit
		abort   = ctrlplane.EntryAbort
		release = ctrlplane.EntryRelease
	)
	for _, tc := range []struct {
		name string
		// first, when set, is applied right after the prepare; the bounce
		// comes before last, the decision under test.
		first   ctrlplane.BatchEntryKind
		sweep   bool // the lease lapses before last
		last    ctrlplane.BatchEntryKind
		refused bool
		want    ctrlplane.SessionState
		held    float64 // bandwidth still reserved on the segment's hops
	}{
		{name: "prepared, commit", last: commit, want: ctrlplane.StateCommitted, held: 5},
		{name: "prepared, abort", last: abort, want: ctrlplane.StateAborted},
		{name: "prepared, commit after lease sweep", sweep: true, last: commit, refused: true, want: ctrlplane.StateAborted},
		{name: "committed, release", first: commit, last: release, want: ctrlplane.StateReleased},
		{name: "committed, abort", first: commit, last: abort, want: ctrlplane.StateReleased},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				rec     ctrlplane.Session
				avail   []float64
				refused bool
			}
			run := func(bounced bool) outcome {
				f := fedFabric(t, 4, 2, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 3}})
				ctx := context.Background()
				sp, err := f.StitchPath(ctx, 2, 10, routing.Options{MinBandwidth: 5})
				if err != nil {
					t.Fatal(err)
				}
				seg := sp.Segments[1]
				reg := f.Region(seg.Region)
				fk := fedKey{ID: 1, Epoch: 1}
				entry := func(kind ctrlplane.BatchEntryKind) ctrlplane.BatchEntry {
					return ctrlplane.BatchEntry{Kind: kind, ID: fk.ID, Epoch: fk.Epoch}
				}
				if !reg.prepareSub(ctx, ctrlplane.Message{
					SessionID: fk.ID, Epoch: fk.Epoch, Bandwidth: 5, Lease: 3,
					Hop: [2]int32{seg.Nodes[0], seg.Nodes[len(seg.Nodes)-1]},
				}) {
					t.Fatal("region 1 refused the prepare")
				}
				if tc.first != 0 {
					if err := reg.applyDecision(ctx, entry(tc.first)); err != nil {
						t.Fatal(err)
					}
				}
				if bounced {
					bounce(f, seg.Region)
				}
				if tc.sweep {
					lapse(f, seg.Region)
				}
				err = reg.applyDecision(ctx, entry(tc.last))
				quiesce(t, f, tc.name)
				out := outcome{rec: *reg.subs[fk], refused: err != nil}
				for h := 0; h+1 < len(out.rec.Path); h++ {
					out.avail = append(out.avail, reg.Plane.Available(out.rec.Path[h], out.rec.Path[h+1]))
				}
				return out
			}
			plain, bounced := run(false), run(true)
			if !reflect.DeepEqual(plain, bounced) {
				t.Fatalf("a bounce changed the outcome:\n  not bounced %+v\n  bounced     %+v", plain, bounced)
			}
			if plain.rec.State != tc.want || plain.refused != tc.refused {
				t.Fatalf("record state %v refused %v, want %v and %v", plain.rec.State, plain.refused, tc.want, tc.refused)
			}
			for h, got := range plain.avail {
				if got != 100-tc.held {
					t.Fatalf("hop %d of the segment: available %.3f, want %.3f", h, got, 100-tc.held)
				}
			}
		})
	}
}

// backloggedCommit sets up session 2 -> 10 (regions 0, 1, 2) with region 2
// dropping off the bus once its prepare is acked: the session commits, its
// commit record to region 2 backlogged. Region 2 is back on the bus when it
// returns, its lease lapsed, so it will refuse that commit when it comes.
func backloggedCommit(t *testing.T, f *Fabric) *Session {
	t.Helper()
	ft := f.peerFT
	ft.OnDeliver = func(m ctrlplane.Message) {
		if m.Type == ctrlplane.MsgXPrepareAck && m.From == ctrlplane.PeerAddr(2) {
			ft.Partition(ctrlplane.PeerAddr(2), true)
		}
	}
	s, err := f.Setup(context.Background(), 2, 10, 5, routing.Options{})
	ft.OnDeliver = nil
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Backlogged != 1 || f.Session(s.ID) != s {
		t.Fatalf("stats %+v, table %+v: want session %d standing with one backlogged record", st, f.Session(s.ID), s.ID)
	}
	lapse(f, 2)
	ft.Partition(ctrlplane.PeerAddr(2), false)
	return s
}

// TestRolledBackSessionIsGone: a session rolled back because a region refused
// its backlogged commit leaves the table like any other session that stops
// standing. Session reads nil, Sessions omits it, and Teardown answers
// ErrNoSession, which the daemon maps to 404. (The record used to stay in the
// table, listed as aborted, and Teardown refused it: a 500 on DELETE.)
func TestRolledBackSessionIsGone(t *testing.T) {
	ctx := context.Background()
	f := fedFabric(t, 4, 1, Config{Seed: 7,
		Retry:      ctrlplane.RetryConfig{LeaseTTL: 3, MaxAttempts: 2},
		PeerFaults: &ctrlplane.FaultConfig{Seed: 7}})
	kept, err := f.Setup(ctx, 0, 3, 5, routing.Options{}) // region 0 only
	if err != nil {
		t.Fatal(err)
	}
	s := backloggedCommit(t, f)
	quiesce(t, f, "rollback")
	if st := f.Stats(); st.Rollbacks != 1 {
		t.Fatalf("stats %+v, want the backlogged commit refused and the session rolled back", st)
	}
	if got := f.Session(s.ID); got != nil {
		t.Fatalf("Session(%d) = %+v after its rollback, want nil", s.ID, got)
	}
	if all := f.Sessions(); len(all) != 1 || all[0] != kept {
		t.Fatalf("Sessions() = %v after the rollback, want only session %d", all, kept.ID)
	}
	if err := f.Teardown(ctx, s); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Teardown of the rolled-back session: %v, want ErrNoSession", err)
	}
	quiesce(t, f, "teardown")
}

// refusalHold is a peer bus that holds back the refusals of one session's
// epoch-1 records and lets them go right behind the first X-PREPARE of
// epoch 2: a refusal of a superseded attempt's commit lands in the middle of
// the heal's re-stitch.
type refusalHold struct {
	ctrlplane.Transport
	id       int
	held     []ctrlplane.Message
	released int
}

func (h *refusalHold) Send(m ctrlplane.Message) {
	if m.Type == ctrlplane.MsgBatchNack && m.SessionID == h.id && m.Epoch == 1 {
		h.held = append(h.held, m)
		return
	}
	h.Transport.Send(m)
	if m.Type == ctrlplane.MsgXPrepare && m.SessionID == h.id && m.Epoch == 2 {
		for _, r := range h.held {
			h.Transport.Send(r)
		}
		h.released += len(h.held)
		h.held = nil
	}
}

// TestHealRestitchesIntoANewRecord: Heal answers a damaged session with a new
// record at Epoch+1, as ctrlplane's Repath does. The record Setup handed out
// keeps its Epoch and Stitched; Session(id) reads the new one. A refusal of
// the superseded attempt's backlogged commit, delivered while the new attempt
// commits, must not roll the new attempt back: the old record left the table
// before the heal released its segments, and the new one goes in only once it
// commits.
func TestHealRestitchesIntoANewRecord(t *testing.T) {
	ctx := context.Background()
	f := fedFabric(t, 4, 2, Config{Seed: 7,
		Retry:      ctrlplane.RetryConfig{LeaseTTL: 3, MaxAttempts: 2},
		PeerFaults: &ctrlplane.FaultConfig{Seed: 7}})
	s := backloggedCommit(t, f)
	epoch, stitched := s.Epoch, s.Stitched
	hold := &refusalHold{Transport: f.d.Transport, id: s.ID}
	f.d.Transport = hold

	// Crash the 0-1 joint in region 1: the heal must move the session to the
	// other border.
	joint := s.Stitched.Segments[1].Nodes[0]
	reg := f.Region(1)
	l, ok := reg.Local(joint)
	if !ok {
		t.Fatalf("joint %d not local to region 1", joint)
	}
	reg.Plane.Crash(l)
	if rep := f.Heal(ctx); rep.Restitched != 1 {
		t.Fatalf("heal report %+v, want 1 restitched", rep)
	}
	if hold.released != 1 {
		t.Fatalf("%d refusals of the superseded commit delivered mid re-stitch, want 1", hold.released)
	}
	if st := f.Stats(); st.Rollbacks != 0 || st.Restitched != 1 {
		t.Fatalf("stats %+v: the superseded attempt's refusal rolled the new attempt back", st)
	}
	healed := f.Session(s.ID)
	if healed == nil || healed.Epoch != epoch+1 || slices.Contains(healed.Stitched.Nodes, joint) {
		t.Fatalf("Session(%d) = %+v after the heal, want epoch %d off the dead joint %d", s.ID, healed, epoch+1, joint)
	}
	if s.Epoch != epoch || s.Stitched != stitched || !slices.Contains(s.Stitched.Nodes, joint) {
		t.Fatalf("the heal wrote through the record Setup handed out: %+v", s)
	}
	reg.Plane.Recover(l)
	quiesce(t, f, "heal")
	// The handle still names the session: Teardown goes by ID.
	if err := f.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	quiesce(t, f, "teardown")
}
