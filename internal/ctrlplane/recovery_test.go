package ctrlplane

import (
	"context"
	"strings"
	"testing"

	"brokerset/internal/routing"
)

// carries reports whether m is a decision record holding an entry of kind
// k — the hook point that used to be a standalone COMMIT or ABORT message.
func carries(m Message, k BatchEntryKind) bool {
	if m.Type != MsgBatch {
		return false
	}
	for _, e := range m.Batch {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// faultyPlane builds a line-topology plane on a FaultTransport.
func faultyPlane(t *testing.T, cfg FaultConfig) (*Plane, *FaultTransport) {
	t.Helper()
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	ft := NewFaultTransport(cfg)
	p.UseTransport(ft)
	return p, ft
}

// Message loss must be absorbed by retransmission: setups still commit,
// teardowns still release, and the ledgers stay exact.
func TestRetriesAbsorbLoss(t *testing.T) {
	rates := FaultRates{Drop: 0.25}
	p, ft := faultyPlane(t, FaultConfig{Seed: 3, ToBroker: rates, ToCoord: rates})
	p.SetRetryConfig(RetryConfig{MaxAttempts: 12})
	ctx := context.Background()
	var live []*Session
	for i := 0; i < 40; i++ {
		s, err := p.Setup(ctx, 0, 4, 0.1, routing.Options{})
		if err != nil {
			t.Fatalf("setup %d under 25%% loss: %v", i, err)
		}
		live = append(live, s)
	}
	for _, s := range live[:20] {
		if err := p.Teardown(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(live[20:]); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Retries == 0 {
		t.Fatal("25% loss produced zero retries")
	}
	if ft.Stats().Dropped == 0 {
		t.Fatal("transport dropped nothing")
	}
}

// Duplicating every message must not double-apply anything: agents dedup
// by MsgID, so holds, commits, and releases each apply once.
func TestDuplicationIsIdempotent(t *testing.T) {
	rates := FaultRates{Duplicate: 1.0}
	p, _ := faultyPlane(t, FaultConfig{Seed: 5, ToBroker: rates, ToCoord: rates})
	ctx := context.Background()
	s, err := p.Setup(ctx, 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Available(0, 1); got != 6 {
		t.Fatalf("duplicated PREPARE double-held: available %f, want 6", got)
	}
	if err := p.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := p.Available(0, 1); got != 10 {
		t.Fatalf("duplicated RELEASE double-credited: available %f, want 10", got)
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.DupsDropped == 0 {
		t.Fatalf("full duplication deduplicated nothing: %+v", st)
	}
}

// A partitioned broker times out; consecutive timeouts trip its breaker;
// setups through it then fast-fail without burning the retry budget; after
// the cooldown the breaker half-opens and traffic resumes.
func TestBreakerTripsAndRecovers(t *testing.T) {
	p, ft := faultyPlane(t, FaultConfig{Seed: 9})
	p.SetRetryConfig(RetryConfig{MaxAttempts: 2, BreakerThreshold: 3, BreakerCooldown: 4})
	ctx := context.Background()
	ft.Partition(2, true)
	// Each failed setup times out twice against broker 2 (the PREPARE and
	// then the BATCH carrying its abort), so the second setup crosses the
	// threshold of 3.
	for i := 0; i < 2; i++ {
		_, err := p.Setup(ctx, 0, 4, 0.1, routing.Options{})
		if err == nil || !strings.Contains(err.Error(), "unresponsive") {
			t.Fatalf("setup %d through partition: %v", i, err)
		}
	}
	st := p.Stats()
	if st.BreakerTrips != 1 || st.Timeouts < 3 {
		t.Fatalf("breaker did not trip: %+v", st)
	}
	sick := p.SickBrokers()
	if len(sick) != 1 || sick[0] != 2 {
		t.Fatalf("SickBrokers = %v, want [2]", sick)
	}
	_, err := p.Setup(ctx, 0, 4, 0.1, routing.Options{})
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("open breaker did not fast-fail: %v", err)
	}
	if st := p.Stats(); st.BreakerFastFails != 1 {
		t.Fatalf("fast-fail not counted: %+v", st)
	}
	// Heal the network; once the cooldown ticks pass, the half-open probe
	// goes through and the setup commits.
	ft.Partition(2, false)
	var s *Session
	for i := 0; i < 16 && s == nil; i++ {
		s, _ = p.Setup(ctx, 0, 4, 0.1, routing.Options{})
	}
	if s == nil {
		t.Fatal("breaker never half-opened after cooldown")
	}
	if len(p.SickBrokers()) != 0 {
		t.Fatalf("recovered broker still sick: %v", p.SickBrokers())
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants([]*Session{s}); err != nil {
		t.Fatal(err)
	}
}

// Crash wipes the volatile ledger; Recover must replay the WAL back to the
// exact pre-crash state.
func TestCrashRecoverRoundTrips(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	ctx := context.Background()
	s1, err := p.Setup(ctx, 0, 4, 3, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Setup(ctx, 0, 4, 2, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Teardown(ctx, s2); err != nil {
		t.Fatal(err)
	}
	want23 := p.Available(2, 3)
	p.Crash(2)
	if got := p.Available(2, 3); got != 0 {
		t.Fatalf("crashed broker still reports a ledger: %f", got)
	}
	p.Recover(2)
	if got := p.Available(2, 3); got != want23 {
		t.Fatalf("recovery drifted: available %f, want %f", got, want23)
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants([]*Session{s1}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A broker that crashes after preparing but before the commit record
// reaches it is in doubt; because the coordinator logged the commit point, recovery
// must finish the commit locally (the capacity stays reserved).
func TestInDoubtResolvesToCommit(t *testing.T) {
	p, ft := faultyPlane(t, FaultConfig{Seed: 11})
	ctx := context.Background()
	ft.OnDeliver = func(m Message) {
		if carries(m, EntryCommit) && m.To == 2 {
			p.Crash(2) // the commit is lost mid-delivery
		}
	}
	s, err := p.Setup(ctx, 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatalf("decided commit must survive a crashed participant: %v", err)
	}
	if s.State != StateCommitted {
		t.Fatalf("state = %v", s.State)
	}
	ft.OnDeliver = nil
	p.Recover(2)
	if got := p.Available(2, 3); got != 6 {
		t.Fatalf("in-doubt commit lost the reservation: available %f, want 6", got)
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants([]*Session{s}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.InDoubtCommitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A broker that crashes holding a prepared session whose decision was
// abort must release the hold during recovery.
func TestInDoubtResolvesToAbort(t *testing.T) {
	p, ft := faultyPlane(t, FaultConfig{Seed: 13})
	ctx := context.Background()
	// First fill (2,3) and (3,4) so a full-length setup will nack there
	// while agent 1 successfully prepares its hops...
	if _, err := p.Setup(ctx, 2, 4, 7, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	// ...and lose broker 1 right when its abort record arrives: it crashes
	// still holding the prepared 7 Gbps on (0,1) and (1,2).
	ft.OnDeliver = func(m Message) {
		if carries(m, EntryAbort) && m.To == 1 {
			p.Crash(1)
		}
	}
	// The path is handed in (the daemon's pinned-snapshot commit): Setup's
	// own search is floored at the bandwidth and would refuse before any hold.
	if res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchSetup, Path: []int32{0, 1, 2, 3, 4}, Bandwidth: 7}}); res[0].Err == nil {
		t.Fatal("oversubscribing setup committed")
	}
	ft.OnDeliver = nil
	p.Recover(1)
	if got := p.Available(0, 1); got != 10 {
		t.Fatalf("in-doubt abort leaked the hold: available %f, want 10", got)
	}
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.InDoubtAborted == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A broker that recovers holding a prepared attempt nobody decided presumes
// it aborted and credits its holds; the coordinator records that abort, so a
// later commit is refused, and the refusal sends the abort to every hop
// owner so that none keeps a hold.
func TestRecoveredPresumedAbortRefusesCommit(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 3})
	ctx := context.Background()
	s, err := p.PrepareOnPath(ctx, []int32{0, 1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Crash(3)
	p.Recover(3)
	if err := p.CommitPrepared(ctx, s); err == nil {
		t.Fatal("commit of an attempt presumed aborted at recovery succeeded")
	}
	if s.State != StateAborted {
		t.Fatalf("state = %v, want aborted", s.State)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// Teardown toward a crashed owner backlogs the release record; the agent's ledger
// catches up once it recovers and the backlog drains.
func TestBacklogDrainsAfterRecovery(t *testing.T) {
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 2, 3})
	ctx := context.Background()
	s, err := p.Setup(ctx, 0, 4, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Crash(2)
	if err := p.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Backlogged == 0 {
		t.Fatal("release to crashed owner was not backlogged")
	}
	if err := p.CheckInvariants(nil); err == nil {
		t.Fatal("invariant check passed without quiescence")
	}
	p.Recover(2)
	if err := p.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.Available(2, 3); got != 10 {
		t.Fatalf("backlogged release never credited: available %f, want 10", got)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// A late duplicate of a request the watermark has passed is a straggler,
// however long ago it was sent: answered, never applied. Each row captures
// the first request of its kind to broker 1 off the wire and sends a copy
// after 5,000 setup/teardown cycles, by which time broker 1 has logged some
// 20,000 message ids. A release applied twice credits (0,1) twice — with a
// dedup memory capped at 16,384 ids it read "available 11, want 10" — and a
// PREPARE for an attempt finalized and forgotten long ago would place a hold
// nobody will ever decide.
func TestStaleDuplicateReleaseIsFenced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(m Message) bool
	}{
		{"release", func(m Message) bool { return carries(m, EntryRelease) }},
		{"prepare", func(m Message) bool { return m.Type == MsgPrepare }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ft := faultyPlane(t, FaultConfig{Seed: 11})
			ctx := context.Background()
			var stale []Message
			ft.OnDeliver = func(m Message) {
				if len(stale) == 0 && m.To == 1 && tc.first(m) {
					stale = append(stale, m)
				}
			}
			cycle := func() {
				s, err := p.Setup(ctx, 0, 4, 1, routing.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Teardown(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5000; i++ {
				cycle()
			}
			ft.OnDeliver = nil
			if len(stale) == 0 {
				t.Fatal("no request to broker 1 captured")
			}
			ft.Send(stale[0])
			if err := p.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
			cycle()
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A setup deadline bounds the whole operation, retries included; expiry
// aborts the setup cleanly.
func TestSetupDeadlineAborts(t *testing.T) {
	p, ft := faultyPlane(t, FaultConfig{Seed: 17})
	ft.Partition(2, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	_, err := p.Setup(ctx, 0, 4, 1, routing.Options{})
	if err == nil || !strings.Contains(err.Error(), "abort") {
		t.Fatalf("expired-context setup: %v", err)
	}
	ft.Partition(2, false)
	if err := p.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}
