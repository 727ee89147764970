package ctrlplane

import (
	"context"
	"testing"
)

// TestUntracedBroadcastAllocs pins what an untraced broadcast round costs
// the heap: the pending map it returns and little else. Its per-send span
// annotations box nothing on a nil span, its send counts and sorted ids
// live in the engine's reused scratch, a send's flight record is typed, and
// the lossless bus reuses its queue. Sixteen PREPAREs to addresses past the
// runtime's small-integer table read 4 allocations: nothing is paid per
// message.
func TestUntracedBroadcastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 6
	d := NewDelivery("test", NewFaultTransport(FaultConfig{}), RetryConfig{})
	d.Dispatch = func(m Message) { d.Reply(m, MsgPrepareAck) }
	msgs := make([]Message, 16)
	round := func() {
		for i := range msgs {
			msgs[i] = Message{From: Coordinator, To: int32(1000 + i), Type: MsgPrepare, MsgID: d.NextID()}
		}
		if nacked, pending := d.Broadcast(context.Background(), msgs); len(nacked)+len(pending) > 0 {
			t.Fatalf("lossless round left %d nacked, %d pending", len(nacked), len(pending))
		}
	}
	round() // size the scratch
	if n := testing.AllocsPerRun(200, round); n > budget {
		t.Fatalf("untraced 16-message broadcast: %v allocs, budget %d", n, budget)
	}
}

// TestSessionCycleAllocs is the control plane's allocation budget for one
// flat session cycle — a one-setup CommitBatch over a three-hop path, then a
// one-teardown CommitBatch — on an 8-broker ring with the default lossless
// bus. It reads 44 (50 before CommitBatch kept its per-round slices on the
// Plane); the budget leaves room for map growth that differs between Go
// releases, not for a per-message cost.
func TestSessionCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 54
	top, m := ringTop(t, 8)
	brokers := make([]int32, 8)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	ctx := context.Background()
	cycle := func() {
		res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchSetup, Path: []int32{0, 1, 2, 3}, Bandwidth: 1}})
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchTeardown, Session: res[0].Session}}); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle() // past the WAL's first checkpoints and the maps' growth
	}
	if n := testing.AllocsPerRun(500, cycle); n > budget {
		t.Fatalf("flat session cycle: %v allocs, budget %d", n, budget)
	}
}
