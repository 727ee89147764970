package ctrlplane

import (
	"context"
	"testing"

	"brokerset/internal/routing"
)

// wireTap records every message put on the wire, in order.
type wireTap struct {
	Transport
	sent []Message
}

func (t *wireTap) Send(m Message) {
	t.sent = append(t.sent, m)
	t.Transport.Send(m)
}

// requests returns how many coordinator→agent messages were sent since the
// last call, failing the test on any message that is not part of the one
// commit protocol: PREPARE and BATCH out, their acks back.
func (t *wireTap) requests(tb testing.TB, step string) int {
	tb.Helper()
	n := 0
	for _, m := range t.sent {
		switch {
		case m.From == Coordinator && (m.Type == MsgPrepare || m.Type == MsgBatch):
			n++
		case m.To == Coordinator && (m.Type == MsgPrepareAck || m.Type == MsgPrepareNack || m.Type == MsgBatchAck):
		default:
			tb.Fatalf("%s: %s %d->%d on the wire; the protocol is PREPARE and BATCH only", step, m.Type, m.From, m.To)
		}
	}
	t.sent = nil
	return n
}

// TestOneProtocolOnTheWire drives every lifecycle entry point over a tapped
// transport: whatever the entry point, the coordinator speaks PREPARE and
// BATCH and nothing else, and a decision costs one request per distinct hop
// owner, not one per hop.
func TestOneProtocolOnTheWire(t *testing.T) {
	ctx := context.Background()
	tapped := func(p *Plane) *wireTap {
		tap := &wireTap{Transport: NewFaultTransport(FaultConfig{})}
		p.UseTransport(tap)
		return tap
	}

	// Line 0–1–2–3–4 with brokers 1 and 3: four hops, two owners.
	top, m := lineTop(t)
	p := New(top, m, []int32{1, 3})
	p.SetRetryConfig(RetryConfig{LeaseTTL: 3})
	tap := tapped(p)
	const hops, owners = 4, 2

	s, err := p.Setup(ctx, 0, 4, 2, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tap.requests(t, "Setup"); got != hops+owners {
		t.Fatalf("Setup cost %d requests, want %d PREPAREs + %d BATCHes", got, hops, owners)
	}
	if err := p.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := tap.requests(t, "Teardown"); got != owners {
		t.Fatalf("Teardown of a %d-hop session held by %d owners cost %d requests, want %d", hops, owners, got, owners)
	}

	path := []int32{0, 1, 2, 3, 4}
	pr, err := p.PrepareOnPath(ctx, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tap.requests(t, "PrepareOnPath"); got != hops {
		t.Fatalf("PrepareOnPath cost %d requests, want %d", got, hops)
	}
	if err = p.CommitPrepared(ctx, pr); err != nil {
		t.Fatal(err)
	}
	s = pr
	if got := tap.requests(t, "CommitPrepared"); got != owners {
		t.Fatalf("CommitPrepared cost %d requests, want %d", got, owners)
	}
	if pr, err = p.PrepareOnPath(ctx, path, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortPrepared(ctx, pr); err != nil {
		t.Fatal(err)
	}
	if got := tap.requests(t, "PrepareOnPath+AbortPrepared"); got != hops+owners {
		t.Fatalf("prepare + abort cost %d requests, want %d", got, hops+owners)
	}

	// A prepare abandoned to the lease sweep is cleaned up with no traffic.
	if _, err = p.PrepareOnPath(ctx, path, 2); err != nil {
		t.Fatal(err)
	}
	tap.requests(t, "PrepareOnPath")
	for i := 0; i < 5; i++ {
		p.Tick()
	}
	if got := tap.requests(t, "lease sweep"); got != 0 || p.Stats().LeaseExpiries != owners {
		t.Fatalf("lease sweep: %d requests, %d hold sets swept, want 0 and %d", got, p.Stats().LeaseExpiries, owners)
	}

	// A mixed round: one setup that commits, one that nacks, one teardown.
	res := p.CommitBatch(ctx, []BatchOp{
		{Kind: BatchSetup, Path: path, Bandwidth: 2},
		{Kind: BatchSetup, Path: path, Bandwidth: 100},
		{Kind: BatchTeardown, Session: s},
	})
	if res[0].Err != nil || res[1].Err == nil || res[2].Err != nil {
		t.Fatalf("mixed batch: %v / %v / %v", res[0].Err, res[1].Err, res[2].Err)
	}
	if got := tap.requests(t, "CommitBatch"); got != 2*hops+owners {
		t.Fatalf("mixed CommitBatch cost %d requests, want %d PREPAREs + %d BATCHes", got, 2*hops, owners)
	}
	if err := p.CheckInvariants([]*Session{res[0].Session}); err != nil {
		t.Fatal(err)
	}

	// Repath: the release of the old path and the reservation of the new
	// one are two rounds of the same protocol.
	dtop, dm := diamondTop(t)
	dp := New(dtop, dm, []int32{1, 3})
	dtap := tapped(dp)
	ds, err := dp.Setup(ctx, 0, 2, 4, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dtap.requests(t, "Setup")
	dm.FailLink(0, 1)
	if ds, err = dp.Repath(ctx, ds, routing.Options{}); err != nil {
		t.Fatal(err)
	}
	// Old path 0–1–2 (owner 1): one BATCH. New path 0–3–2 (owner 3): two
	// PREPAREs and one BATCH.
	if got := dtap.requests(t, "Repath"); got != 4 {
		t.Fatalf("Repath cost %d requests, want 4", got)
	}
	if err := dp.CheckInvariants([]*Session{ds}); err != nil {
		t.Fatal(err)
	}
}
