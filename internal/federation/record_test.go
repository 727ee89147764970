package federation

import (
	"context"
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
