package ctrlplane

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// leasePlane builds a line-topology plane with every node a broker and the
// given lease TTL.
func leasePlane(t *testing.T, ttl int) *Plane {
	t.Helper()
	top, m := lineTop(t)
	p := New(top, m, []int32{0, 1, 2, 3, 4})
	p.SetRetryConfig(RetryConfig{LeaseTTL: ttl})
	return p
}

func TestPrepareCommitWithinLease(t *testing.T) {
	p := leasePlane(t, 100)
	path := []int32{0, 1, 2, 3, 4}
	s, err := p.PrepareOnPath(context.Background(), path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StatePrepared {
		t.Fatalf("state %d after prepare, want StatePrepared", s.State)
	}
	// Prepared holds deduct availability but are not yet committed.
	if got := p.Available(0, 1); got != 8 {
		t.Fatalf("available 8 expected while prepared, got %f", got)
	}
	if err := p.CommitPrepared(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if s.State != StateCommitted {
		t.Fatalf("state %d after commit, want StateCommitted", s.State)
	}
	if err := p.CheckInvariants([]*Session{s}); err != nil {
		t.Fatal(err)
	}
	if err := p.Teardown(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbortPrepared(t *testing.T) {
	p := leasePlane(t, 100)
	pr, err := p.PrepareOnPath(context.Background(), []int32{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AbortPrepared(context.Background(), pr); err != nil {
		t.Fatal(err)
	}
	if pr.State != StateAborted {
		t.Fatalf("state %d after abort, want StateAborted", pr.State)
	}
	if got := p.Available(0, 1); got != 10 {
		t.Fatalf("hold not released: available %f, want 10", got)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpirySelfCleans is the abandoned-mid-stitch scenario: the
// (remote) coordinator that prepared the segment dies and never decides.
// The holds must self-clean by lease expiry — no abort or teardown message
// ever reaches the agents — and a late commit must be refused.
func TestLeaseExpirySelfCleans(t *testing.T) {
	p := leasePlane(t, 3)
	pr, err := p.PrepareOnPath(context.Background(), []int32{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	msgsBefore := p.Stats().Messages
	// The abandoning coordinator goes silent; only the clock keeps running.
	for i := 0; i < 5; i++ {
		p.Tick()
	}
	if got := p.Stats().LeaseExpiries; got == 0 {
		t.Fatal("no lease expiries recorded after TTL elapsed")
	}
	if got := p.Stats().Messages; got != msgsBefore {
		t.Fatalf("lease sweep sent %d message(s); self-clean must be traffic-free", got-msgsBefore)
	}
	for _, hop := range [][2]int32{{0, 1}, {1, 2}, {2, 3}} {
		if got := p.Available(hop[0], hop[1]); got != 10 {
			t.Fatalf("link (%d,%d): available %f after expiry, want 10", hop[0], hop[1], got)
		}
	}
	// A straggling commit for the swept attempt must be refused, not applied.
	if err := p.CommitPrepared(context.Background(), pr); err == nil {
		t.Fatal("commit of an expired prepare succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "lease expired") {
		t.Fatalf("refusal error %q does not name the lease", err)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpiryInvariantClassification distinguishes leased-but-expired
// capacity (one Tick from recovery) from a true leak.
func TestLeaseExpiryInvariantClassification(t *testing.T) {
	p := leasePlane(t, 2)
	if _, err := p.PrepareOnPath(context.Background(), []int32{0, 1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Advance the clock past the lease without running the sweep (ticks
	// would sweep): the checker must classify, not cry leak.
	for i := 0; i < 10; i++ {
		p.d.Tick()
	}
	err := p.CheckInvariants(nil)
	if err == nil {
		t.Fatal("expired holds passed the invariant check")
	}
	if !strings.Contains(err.Error(), "leased-but-expired") {
		t.Fatalf("error %q does not classify expired leases", err)
	}
	p.Tick()
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseSurvivesCrashRecover: leases are WAL-durable, so a broker that
// crashes holding a leased-but-undecided hold resolves it by presumed abort
// on recovery (the stricter rule already in place) and the checker stays
// green.
func TestLeaseSurvivesCrashRecover(t *testing.T) {
	p := leasePlane(t, 50)
	if _, err := p.PrepareOnPath(context.Background(), []int32{0, 1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	p.Crash(1)
	p.Recover(1)
	if got := p.Stats().InDoubtAborted; got == 0 {
		t.Fatal("in-doubt leased hold not resolved on recovery")
	}
	// Broker 0's hold on (0,1) is still live and leased; it self-cleans.
	for i := 0; i < 60; i++ {
		p.Tick()
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
}

// TestResumePrepared drives a split-phase session the way a federation region
// keeps one: the record PrepareOnPath handed out is the only handle, and
// every later step — commit, the damage check, the release — takes it.
func TestResumePrepared(t *testing.T) {
	p := leasePlane(t, 100)
	s, err := p.PrepareOnPath(context.Background(), []int32{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, epoch, path := s.ID, s.Epoch, s.Path
	if err := p.CommitPrepared(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants([]*Session{s}); err != nil {
		t.Fatal(err)
	}
	// The handle carries its hop owners, so a crashed owner reads as damage,
	// and it releases once recovered.
	if p.SessionDamaged(s) {
		t.Fatal("committed session damaged on a healthy plane")
	}
	p.Crash(2)
	if !p.SessionDamaged(s) {
		t.Fatal("committed session blind to its crashed hop owner")
	}
	p.Recover(2)
	if err := p.Teardown(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	// Only the state moved: identity and route are what PrepareOnPath gave.
	if s.State != StateReleased || s.ID != id || s.Epoch != epoch || &s.Path[0] != &path[0] {
		t.Fatalf("record after commit and release = %+v", s)
	}
}

func TestMessageCodecCarriesLease(t *testing.T) {
	m := Message{From: Coordinator, To: 3, Type: MsgPrepare, SessionID: 7,
		Epoch: 2, MsgID: 9, Hop: [2]int32{3, 4}, Bandwidth: 1.5, Lease: 42}
	got, err := DecodeMessage(m.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("codec round-trip: got %+v, want %+v", got, m)
	}
	x := Message{From: PeerAddr(1), To: PeerAddr(0), Type: MsgGossip, SessionID: 1, MsgID: 11}
	if _, err := DecodeMessage(x.Encode(nil)); err != nil {
		t.Fatalf("gossip frame rejected: %v", err)
	}
}
