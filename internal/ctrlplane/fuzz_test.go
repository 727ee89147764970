package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzMessageCodec: DecodeMessage must never panic, and every frame it
// accepts must re-encode to the identical bytes (the codec is bijective on
// valid frames).
func FuzzMessageCodec(f *testing.F) {
	f.Add(Message{Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: 2, Hop: [2]int32{0, 1}, Bandwidth: 2.5}.Encode(nil))
	f.Add(Message{From: 3, To: Coordinator, Type: MsgPrepareAck, MsgID: 9, AckFor: 2}.Encode(nil))
	f.Add(Message{From: Coordinator, To: 2, Type: MsgBatch, MsgID: 3, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{0, 1}, BW: -1},
	}}.Encode(nil))
	// A peer decision record: a home region's commit toward a transit region.
	f.Add(Message{From: PeerAddr(0), To: PeerAddr(1), Type: MsgBatch, SessionID: 1, Epoch: 1, MsgID: 5, Trace: 7,
		Batch: []BatchEntry{{Kind: EntryCommit, ID: 1, Epoch: 1}}}.Encode(nil))
	f.Add(Message{From: PeerAddr(1), To: PeerAddr(0), Type: MsgBatchNack, SessionID: 1, Epoch: 1, MsgID: 6, AckFor: 5}.Encode(nil))
	// Requests carry the sender's watermark in the header's last 8 bytes
	// (73-byte frames since the watermark; 65 before it).
	f.Add(Message{Type: MsgPrepare, SessionID: 3, Epoch: 1, MsgID: 12, Hop: [2]int32{1, 2}, Bandwidth: 1, Watermark: 9}.Encode(nil))
	f.Add(Message{From: PeerAddr(0), To: PeerAddr(1), Type: MsgXPrepare, SessionID: 3, Epoch: 2, MsgID: 40, Watermark: 40}.Encode(nil))
	// The retired COMMIT..RELEASE-ACK and X-COMMIT..X-RELEASE-ACK type bytes
	// must be refused, not panic and not decode as something else.
	for _, typ := range []byte{4, 5, 6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 19} {
		retired := Message{Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: 4}.Encode(nil)
		retired[8] = typ
		if _, err := DecodeMessage(retired); err == nil {
			f.Fatalf("retired type byte %d decoded", typ)
		}
		f.Add(retired)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, msgWireSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if got := m.Encode(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted frame not canonical: % x -> %+v -> % x", data, m, got)
		}
		if _, err := DecodeMessage(m.Encode(nil)); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
	})
}

// FuzzBatchCodec fuzzes the variable-length batch record codec: MsgBatch
// frames carry a count-prefixed entry list, so truncation, inflated
// counts, out-of-range entry kinds, and non-finite bandwidths all have to
// be rejected without panicking — and every accepted frame must re-encode
// canonically, entries included.
func FuzzBatchCodec(f *testing.F) {
	f.Add(Message{From: Coordinator, To: 2, Type: MsgBatch, MsgID: 7, Batch: []BatchEntry{
		{Kind: EntryCommit, ID: 1, Epoch: 1},
	}}.Encode(nil))
	f.Add(Message{From: Coordinator, To: 3, Type: MsgBatch, MsgID: 8, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 2, Epoch: 1, Hop: [2]int32{0, 1}, BW: 2.5},
		{Kind: EntryAbort, ID: 3, Epoch: 2},
		{Kind: EntryCommit, ID: 4, Epoch: 1},
	}}.Encode(nil))
	// A peer decision record (records between regions name one session).
	f.Add(Message{From: PeerAddr(0), To: PeerAddr(2), Type: MsgBatch, SessionID: 6, Epoch: 2, MsgID: 10, Trace: 9,
		Batch: []BatchEntry{{Kind: EntryRelease, ID: 6, Epoch: 2}}}.Encode(nil))
	f.Add(Message{From: Coordinator, To: 1, Type: MsgBatch, MsgID: 30, Watermark: 17, Batch: []BatchEntry{
		{Kind: EntryCommit, ID: 8, Epoch: 1},
	}}.Encode(nil))
	// A frame with a retired peer type byte and a batch body behind it.
	for typ := byte(13); typ <= 19; typ++ {
		retired := Message{Type: MsgBatch, MsgID: 11, Batch: []BatchEntry{{Kind: EntryAbort, ID: 6, Epoch: 2}}}.Encode(nil)
		retired[8] = typ
		f.Add(retired)
	}
	// Truncated entry list and a count promising more entries than bytes.
	full := Message{Type: MsgBatch, MsgID: 9, Batch: []BatchEntry{{Kind: EntryCommit, ID: 5, Epoch: 1}}}.Encode(nil)
	f.Add(full[:len(full)-4])
	f.Add(append(append([]byte(nil), full[:msgWireSize]...), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if got := m.Encode(nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted frame not canonical: % x -> %+v -> % x", data, m, got)
		}
		if m.Type != MsgBatch {
			if len(m.Batch) != 0 {
				t.Fatalf("non-batch frame decoded entries: %+v", m)
			}
			return
		}
		for _, e := range m.Batch {
			if e.Kind < EntryCommit || e.Kind > EntryRelease {
				t.Fatalf("accepted out-of-range entry kind %d", e.Kind)
			}
			if math.IsNaN(e.BW) || math.IsInf(e.BW, 0) {
				t.Fatalf("accepted non-finite entry bandwidth %v", e.BW)
			}
		}
		m2, err := DecodeMessage(m.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip drifted: %+v vs %+v", m, m2)
		}
	})
}

// agentImage is a comparable snapshot of an agent's protocol state and the
// ledger column it writes (a credit may land on another agent's row).
func agentImage(p *Plane, a *agent) (avail []float64, holds int, done int, seen int) {
	return slices.Clone(p.avail), len(a.holds), len(a.done), len(a.seen)
}

func sameImage(av1 []float64, h1, d1, s1 int, av2 []float64, h2, d2, s2 int) bool {
	return h1 == h2 && d1 == d2 && s1 == s2 && slices.Equal(av1, av2)
}

// FuzzDeliverIdempotent: whatever frame sequence the wire produces,
// delivering any message a second time must be a state no-op — the dedup
// and fencing rules make retransmission safe by construction.
func FuzzDeliverIdempotent(f *testing.F) {
	prepare := Message{To: 1, Type: MsgPrepare, SessionID: 1, Epoch: 1, MsgID: 1, Hop: [2]int32{0, 1}, Bandwidth: 2}
	f.Add(Message{To: 1, Type: MsgBatch, MsgID: 2, Batch: []BatchEntry{{Kind: EntryCommit, ID: 1, Epoch: 1}}}.Encode(
		prepare.Encode(nil)))
	f.Add(Message{To: 1, Type: MsgBatch, MsgID: 3, Batch: []BatchEntry{{Kind: EntryAbort, ID: 1, Epoch: 1}}}.Encode(
		prepare.Encode(nil)))
	f.Add(Message{To: 1, Type: MsgBatch, MsgID: 4, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{0, 1}, BW: 2},
		{Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{1, 2}, BW: 2},
	}}.Encode(nil))
	// A release, then a PREPARE whose watermark passes it, then the release
	// again: a straggler now, acked and not applied.
	release := Message{To: 1, Type: MsgBatch, MsgID: 5, Batch: []BatchEntry{
		{Kind: EntryRelease, ID: 1, Epoch: 1, Hop: [2]int32{0, 1}, BW: 2},
	}}
	f.Add(release.Encode(Message{To: 1, Type: MsgPrepare, SessionID: 2, Epoch: 1, MsgID: 7, Hop: [2]int32{0, 1}, Bandwidth: 1, Watermark: 6}.Encode(
		release.Encode(nil))))
	// Frames the codec refuses: a negative PREPARE and its commit, which would
	// raise (0,1) above its capacity, and a negative release.
	var refused []byte
	for _, tc := range unreservable {
		refused = tc.m.Encode(refused)
	}
	f.Add(Message{To: 1, Type: MsgBatch, MsgID: 3, Batch: []BatchEntry{{Kind: EntryCommit, ID: 1, Epoch: 1}}}.Encode(refused))
	f.Fuzz(func(t *testing.T, data []byte) {
		top, m := lineTop(t)
		p := New(top, m, []int32{1, 2, 3})
		a := p.agents[1]
		for off, frames := 0, 0; off+msgWireSize <= len(data) && frames < 64; frames++ {
			// Frames are fixed-size except BATCH, whose header is followed by
			// an entry count and that many fixed-size entries.
			end := off + msgWireSize
			if MsgType(data[off+8]) == MsgBatch && end+4 <= len(data) {
				if n := binary.LittleEndian.Uint32(data[end:]); n <= 16 {
					end += 4 + int(n)*batchEntryWireSize
				}
			}
			if end > len(data) {
				break
			}
			msg, err := DecodeMessage(data[off:end])
			off = end
			if err != nil {
				continue
			}
			msg.To = 1 // route every frame at agent 1
			p.deliver(a, msg)
			if err := checkFold(p); err != nil {
				t.Fatalf("after %+v: %v", msg, err)
			}
			av1, h1, d1, s1 := agentImage(p, a)
			p.deliver(a, msg) // exact retransmission
			av2, h2, d2, s2 := agentImage(p, a)
			if !sameImage(av1, h1, d1, s1, av2, h2, d2, s2) {
				t.Fatalf("redelivery of %+v changed agent state", msg)
			}
			// Drain replies so the bus doesn't grow unbounded.
			for {
				if _, ok := p.d.Transport.Recv(); !ok {
					break
				}
			}
		}
	})
}
