package ctrlplane

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func mkMsg(id uint64, to int32) Message {
	return Message{From: Coordinator, To: to, Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: id, Hop: [2]int32{0, 1}, Bandwidth: 2}
}

// drain pulls every deliverable message, advancing until the held queue
// empties too.
func drainAll(tr *FaultTransport) []uint64 {
	var got []uint64
	for rounds := 0; rounds < 64; rounds++ {
		for {
			m, ok := tr.Recv()
			if !ok {
				break
			}
			got = append(got, m.MsgID)
		}
		if len(tr.held) == 0 {
			break
		}
		tr.Advance()
	}
	return got
}

// The same seed must replay the exact same fault schedule — and a config with
// no rate above zero is the lossless FIFO every plane starts on: nothing
// dropped, duplicated, held or reordered, Advance a no-op, and the seeded
// stream never drawn from, so making it the default transport moved no
// existing seed's schedule.
func TestFaultTransportDeterministic(t *testing.T) {
	for _, cfg := range []FaultConfig{{}, {Seed: 42}} {
		tr := NewFaultTransport(cfg)
		if _, ok := tr.Recv(); ok {
			t.Fatal("empty transport delivered")
		}
		for i := uint64(1); i <= 200; i++ {
			to := int32(i % 5)
			if i%3 == 0 {
				to = Coordinator
			}
			tr.Send(mkMsg(i, to))
			if i%50 == 0 {
				tr.Advance()
			}
		}
		for i := uint64(1); i <= 200; i++ {
			if m, ok := tr.Recv(); !ok || m.MsgID != i {
				t.Fatalf("zero-rate config (seed %d): recv %d: got %d %v", cfg.Seed, i, m.MsgID, ok)
			}
		}
		if st := tr.Stats(); st != (TransportStats{Sent: 200, Delivered: 200}) {
			t.Fatalf("zero-rate config (seed %d) misbehaved: %+v", cfg.Seed, st)
		}
		if got, want := tr.rng.Int63(), rand.New(rand.NewSource(cfg.Seed)).Int63(); got != want {
			t.Fatalf("zero-rate config (seed %d) drew from the fault stream", cfg.Seed)
		}
	}

	run := func() ([]uint64, TransportStats) {
		tr := NewFaultTransport(FaultConfig{
			Seed:     42,
			ToBroker: FaultRates{Drop: 0.1, Duplicate: 0.1, Delay: 0.2, MaxDelay: 3, Reorder: 0.2},
			ToCoord:  FaultRates{Drop: 0.1, Duplicate: 0.1, Delay: 0.2, MaxDelay: 3, Reorder: 0.2},
		})
		for i := uint64(1); i <= 200; i++ {
			to := int32(i % 5)
			if i%3 == 0 {
				to = Coordinator
			}
			tr.Send(mkMsg(i, to))
		}
		return drainAll(tr), tr.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if len(got1) != len(got2) || st1 != st2 {
		t.Fatalf("non-deterministic replay: %d/%d msgs, %+v vs %+v", len(got1), len(got2), st1, st2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, got1[i], got2[i])
		}
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 || st1.Delayed == 0 || st1.Reordered == 0 {
		t.Fatalf("fault schedule exercised nothing: %+v", st1)
	}
	if st1.Sent != 200 {
		t.Fatalf("sent = %d", st1.Sent)
	}
}

func TestFaultTransportPartition(t *testing.T) {
	tr := NewFaultTransport(FaultConfig{Seed: 7})
	tr.Partition(3, true)
	if !tr.partitioned[3] {
		t.Fatal("partition not recorded")
	}
	tr.Send(mkMsg(1, 3))                                                      // to the partitioned broker
	tr.Send(Message{From: 3, To: Coordinator, Type: MsgPrepareAck, MsgID: 2}) // from it
	tr.Send(mkMsg(3, 1))                                                      // unrelated traffic flows
	if got := drainAll(tr); len(got) != 1 || got[0] != 3 {
		t.Fatalf("partition leaked: delivered %v", got)
	}
	if st := tr.Stats(); st.PartitionDrops != 2 {
		t.Fatalf("partition drops = %d", st.PartitionDrops)
	}
	tr.Partition(3, false)
	tr.Send(mkMsg(4, 3))
	if got := drainAll(tr); len(got) != 1 || got[0] != 4 {
		t.Fatalf("lifted partition still dropping: %v", got)
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{From: Coordinator, To: 7, Type: MsgPrepare, SessionID: 123456, Epoch: 9, MsgID: 1 << 40, AckFor: 3, Hop: [2]int32{-2, 1 << 30}, Bandwidth: 3.25, Trace: 0xdeadbeefcafe},
		{From: 5, To: Coordinator, Type: MsgBatchAck, SessionID: -1, MsgID: 1, AckFor: ^uint64(0), Bandwidth: 0},
		{From: PeerAddr(0), To: PeerAddr(1), Type: MsgXPrepare, MsgID: 7, Bandwidth: 0.5, Trace: ^uint64(0)},
	}
	for i, m := range msgs {
		if m.Type == 0 {
			m.Type = MsgPrepareAck
		}
		b := m.Encode(nil)
		if len(b) != msgWireSize {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(b), msgWireSize)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("case %d: roundtrip %+v != %+v", i, got, m)
		}
	}
}

func TestMessageDecodeRejectsMalformed(t *testing.T) {
	good := Message{Type: MsgPrepare, MsgID: 1, Bandwidth: 1}.Encode(nil)
	if _, err := DecodeMessage(good[:len(good)-1]); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := DecodeMessage(append(good, 0)); err == nil {
		t.Fatal("long frame accepted")
	}
	bad := Message{Type: MsgPrepare, MsgID: 1, Bandwidth: 1}.Encode(nil)
	bad[8] = 200 // unknown type
	if _, err := DecodeMessage(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Bytes 4–9 were COMMIT/ABORT/RELEASE and their acks, bytes 13–19 their
	// cross-region X-COMMIT … X-RELEASE-ACK counterparts. They stay retired:
	// the types around them keep their wire values and a peer still speaking
	// an old protocol is refused, not misread as another message.
	if MsgXPrepare != 10 || MsgGossip != 20 || MsgBatchAck != 22 {
		t.Fatalf("wire values moved: X-PREPARE=%d GOSSIP=%d BATCH-ACK=%d, want 10, 20 and 22", MsgXPrepare, MsgGossip, MsgBatchAck)
	}
	for typ := byte(1); typ <= byte(MsgBatchNack); typ++ {
		if MsgType(typ) == MsgBatch {
			continue // live, but a fixed-size frame is not a valid record
		}
		bad[8] = typ
		retired := (typ >= 4 && typ <= 9) || (typ >= 13 && typ <= 19)
		if _, err := DecodeMessage(bad); (err != nil) != retired {
			t.Fatalf("type %d: decode err = %v, want retired = %v", typ, err, retired)
		}
	}
	nan := Message{Type: MsgPrepare, Bandwidth: math.NaN()}.Encode(nil)
	if _, err := DecodeMessage(nan); err == nil {
		t.Fatal("NaN bandwidth accepted")
	}
	// A request must reserve something: a negative PREPARE would be granted
	// (avail >= -5) and a commit of it would raise a capacity-10 link to 15; a
	// negative release would take a link below what is committed on it.
	for _, tc := range unreservable {
		if _, err := DecodeMessage(tc.m.Encode(nil)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// A peer record's release names a session and carries no bandwidth, and
	// gossip carries connectivity in the bandwidth field: both still decode.
	for _, m := range []Message{
		{From: PeerAddr(0), To: PeerAddr(1), Type: MsgBatch, MsgID: 3, Batch: []BatchEntry{{Kind: EntryRelease, ID: 1, Epoch: 1}}},
		{From: PeerAddr(1), To: PeerAddr(0), Type: MsgGossip, MsgID: 4},
	} {
		if _, err := DecodeMessage(m.Encode(nil)); err != nil {
			t.Errorf("%s %d->%d rejected: %v", m.Type, m.From, m.To, err)
		}
	}
}

// unreservable lists frames whose bandwidth cannot be reserved, each of
// which DecodeMessage must reject.
var unreservable = []struct {
	name string
	m    Message
}{
	{"negative PREPARE", Message{To: 1, Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: 1, Hop: [2]int32{0, 1}, Bandwidth: -5}},
	{"zero PREPARE", Message{To: 1, Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: 1, Hop: [2]int32{0, 1}}},
	{"negative X-PREPARE", Message{From: PeerAddr(0), To: PeerAddr(1), Type: MsgXPrepare, SessionID: 1, Epoch: 1, MsgID: 1, Bandwidth: -5}},
	{"zero X-PREPARE", Message{From: PeerAddr(0), To: PeerAddr(1), Type: MsgXPrepare, SessionID: 1, Epoch: 1, MsgID: 1}},
	{"negative release", Message{To: 1, Type: MsgBatch, MsgID: 2, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{1, 2}, BW: -7}}}},
	{"zero release", Message{To: 1, Type: MsgBatch, MsgID: 2, Batch: []BatchEntry{
		{Kind: EntryCommit, ID: 2, Epoch: 1}, {Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{1, 2}}}}},
	{"negative peer release", Message{From: PeerAddr(0), To: PeerAddr(1), Type: MsgBatch, MsgID: 2, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 1, Epoch: 1, BW: -1}}}},
}
