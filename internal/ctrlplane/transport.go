package ctrlplane

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Transport moves protocol messages between the coordinator and the broker
// agents. The control plane owns exactly one transport; Send enqueues a
// message toward its destination, Recv pops the next deliverable message,
// Advance moves simulated time forward one step (releasing messages a
// faulty transport is holding back), and Stats copies the delivery and fault
// counters. Implementations need not be safe for concurrent use — the plane
// serializes all protocol activity.
type Transport interface {
	Send(m Message)
	Recv() (Message, bool)
	Advance()
	Stats() TransportStats
}

// FaultRates are per-message fault probabilities for one traffic direction.
// Each rate is in [0,1); faults are rolled independently in the order drop,
// duplicate, delay, reorder, so a message can be both duplicated and
// delayed. A zero value injects nothing.
type FaultRates struct {
	// Drop is the probability the message is silently discarded.
	Drop float64
	// Duplicate is the probability a second copy is enqueued (the copy is
	// subject to its own delay/reorder rolls).
	Duplicate float64
	// Delay is the probability the message is held back for 1..MaxDelay
	// Advance steps before becoming deliverable.
	Delay float64
	// MaxDelay bounds the held-back steps (default 2 when Delay > 0).
	MaxDelay int
	// Reorder is the probability the message is inserted at a random queue
	// position instead of the tail.
	Reorder float64
}

// FaultConfig parameterizes a FaultTransport. The same seed always replays
// the same fault schedule for the same message sequence, so any failing run
// is reproducible from its seed alone.
type FaultConfig struct {
	Seed int64
	// ToBroker applies to coordinator→agent traffic, ToCoord to
	// agent→coordinator replies.
	ToBroker FaultRates
	ToCoord  FaultRates
}

// TransportStats counts fault-injection activity.
type TransportStats struct {
	Sent           uint64 `json:"sent"`
	Delivered      uint64 `json:"delivered"`
	Dropped        uint64 `json:"dropped"`
	Duplicated     uint64 `json:"duplicated"`
	Delayed        uint64 `json:"delayed"`
	Reordered      uint64 `json:"reordered"`
	PartitionDrops uint64 `json:"partition_drops"`
}

type heldMsg struct {
	m       Message
	readyAt int
}

// FaultTransport is the message bus: a synchronous FIFO queue with
// deterministic, seeded fault injection — message drop, duplication, delay
// (in Advance steps), reorder, and per-broker partitions that silently eat
// traffic in both directions. With a zero FaultConfig it is the lossless,
// ordered, zero-latency bus every plane and fabric starts on: no rate is
// above zero, so the seeded stream is never drawn from.
type FaultTransport struct {
	cfg FaultConfig
	rng *rand.Rand
	// q[head:] is the queue. Recv advances head and rewinds both to the
	// array's start once the queue is empty — every pump drains it — so
	// the backing array is reused round after round instead of regrown.
	q           []Message
	head        int
	held        []heldMsg
	partitioned map[int32]bool
	step        int
	stats       TransportStats

	// OnDeliver, when non-nil, observes every message as Recv hands it
	// over. Chaos harnesses use it to trigger mid-protocol crashes at
	// exact, reproducible points.
	OnDeliver func(m Message)
}

// NewFaultTransport builds a fault-injecting transport from cfg.
func NewFaultTransport(cfg FaultConfig) *FaultTransport {
	return &FaultTransport{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		partitioned: make(map[int32]bool),
	}
}

// Partition isolates broker b (on=true): messages from or to it are
// silently dropped until the partition is lifted. The coordinator cannot
// tell a partitioned broker from a slow one — only timeouts reveal it.
func (t *FaultTransport) Partition(b int32, on bool) {
	if on {
		t.partitioned[b] = true
	} else {
		delete(t.partitioned, b)
	}
}

// Stats returns a copy of the fault counters.
func (t *FaultTransport) Stats() TransportStats { return t.stats }

func (t *FaultTransport) rates(m Message) FaultRates {
	if m.To == Coordinator {
		return t.cfg.ToCoord
	}
	return t.cfg.ToBroker
}

// enqueue places one copy on the queue, rolling delay and reorder faults.
func (t *FaultTransport) enqueue(m Message, r FaultRates) {
	if r.Delay > 0 && t.rng.Float64() < r.Delay {
		maxd := r.MaxDelay
		if maxd <= 0 {
			maxd = 2
		}
		t.stats.Delayed++
		t.held = append(t.held, heldMsg{m: m, readyAt: t.step + 1 + t.rng.Intn(maxd)})
		return
	}
	if n := len(t.q) - t.head; r.Reorder > 0 && n > 0 && t.rng.Float64() < r.Reorder {
		t.stats.Reordered++
		t.insert(t.rng.Intn(n+1), m)
		return
	}
	t.q = append(t.q, m)
}

// insert places m at position i of the queue (0 = next to be received).
func (t *FaultTransport) insert(i int, m Message) {
	i += t.head
	t.q = append(t.q, Message{})
	copy(t.q[i+1:], t.q[i:])
	t.q[i] = m
}

// Send implements Transport: rolls the configured faults and enqueues the
// surviving copies.
func (t *FaultTransport) Send(m Message) {
	t.stats.Sent++
	if (m.From != Coordinator && t.partitioned[m.From]) ||
		(m.To != Coordinator && t.partitioned[m.To]) {
		t.stats.PartitionDrops++
		return
	}
	r := t.rates(m)
	if r.Drop > 0 && t.rng.Float64() < r.Drop {
		t.stats.Dropped++
		return
	}
	t.enqueue(m, r)
	if r.Duplicate > 0 && t.rng.Float64() < r.Duplicate {
		t.stats.Duplicated++
		t.enqueue(m, r)
	}
}

// Recv implements Transport.
func (t *FaultTransport) Recv() (Message, bool) {
	if t.head == len(t.q) {
		return Message{}, false
	}
	m := t.q[t.head]
	t.q[t.head] = Message{} // the array outlives the message: drop its batch
	if t.head++; t.head == len(t.q) {
		t.q, t.head = t.q[:0], 0
	}
	t.stats.Delivered++
	if t.OnDeliver != nil {
		t.OnDeliver(m)
	}
	return m, true
}

// Advance implements Transport: one time step passes, and held-back
// messages whose delay expired rejoin the queue (at seeded-random
// positions, so a delayed message can overtake its successors).
func (t *FaultTransport) Advance() {
	t.step++
	kept := t.held[:0]
	for _, h := range t.held {
		if h.readyAt > t.step {
			kept = append(kept, h)
			continue
		}
		t.insert(t.rng.Intn(len(t.q)-t.head+1), h.m)
	}
	t.held = kept
}

// msgWireSize is the fixed encoded size of a Message header. MsgBatch
// frames extend it with a variable-length batch record (see Encode); every
// other type encodes to exactly this size. The last two 8-byte fields are
// the trace ID (0 = untraced) and the fencing watermark; each was a
// wire-format bump (65 → 73 bytes for the watermark): old peers reject the
// longer frame outright rather than silently ignore the field.
const msgWireSize = 4 + 4 + 1 + 8 + 4 + 8 + 8 + 4 + 4 + 8 + 4 + 8 + 8

// batchEntryWireSize is the fixed encoded size of one BatchEntry.
const batchEntryWireSize = 1 + 8 + 4 + 4 + 4 + 8

// maxBatchEntries bounds the decoded batch record length — a corrupt count
// field must not drive a huge allocation.
const maxBatchEntries = 1 << 20

// Encode appends the little-endian wire form of m to dst: a fixed-size
// header, plus — for MsgBatch only — a uint32 entry count followed by the
// fixed-size batch entries.
func (m Message) Encode(dst []byte) []byte {
	var b [msgWireSize]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(m.From))
	binary.LittleEndian.PutUint32(b[4:], uint32(m.To))
	b[8] = byte(m.Type)
	binary.LittleEndian.PutUint64(b[9:], uint64(m.SessionID))
	binary.LittleEndian.PutUint32(b[17:], m.Epoch)
	binary.LittleEndian.PutUint64(b[21:], m.MsgID)
	binary.LittleEndian.PutUint64(b[29:], m.AckFor)
	binary.LittleEndian.PutUint32(b[37:], uint32(m.Hop[0]))
	binary.LittleEndian.PutUint32(b[41:], uint32(m.Hop[1]))
	binary.LittleEndian.PutUint64(b[45:], math.Float64bits(m.Bandwidth))
	binary.LittleEndian.PutUint32(b[53:], m.Lease)
	binary.LittleEndian.PutUint64(b[57:], m.Trace)
	binary.LittleEndian.PutUint64(b[65:], m.Watermark)
	dst = append(dst, b[:]...)
	if m.Type != MsgBatch {
		return dst
	}
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], uint32(len(m.Batch)))
	dst = append(dst, c[:]...)
	for _, e := range m.Batch {
		var eb [batchEntryWireSize]byte
		eb[0] = byte(e.Kind)
		binary.LittleEndian.PutUint64(eb[1:], uint64(e.ID))
		binary.LittleEndian.PutUint32(eb[9:], e.Epoch)
		binary.LittleEndian.PutUint32(eb[13:], uint32(e.Hop[0]))
		binary.LittleEndian.PutUint32(eb[17:], uint32(e.Hop[1]))
		binary.LittleEndian.PutUint64(eb[21:], math.Float64bits(e.BW))
		dst = append(dst, eb[:]...)
	}
	return dst
}

// DecodeMessage parses the wire form produced by Encode, rejecting
// short/long buffers, unknown message types, malformed batch records,
// non-finite bandwidths, and requests whose bandwidth cannot be reserved —
// a PREPARE or X-PREPARE, or a release entry, whose bandwidth is not > 0 (a
// negative one would be granted and credit capacity the link never had). A
// peer record's release names a session, not a hop, and carries 0; gossip
// reuses the bandwidth field for connectivity. A malformed frame must never
// enter an agent's state machine. Only MsgBatch frames may exceed the fixed
// header size, and their length must match the entry count exactly.
func DecodeMessage(b []byte) (Message, error) {
	if len(b) < msgWireSize {
		return Message{}, fmt.Errorf("ctrlplane: message frame is %d bytes, want >= %d", len(b), msgWireSize)
	}
	m := Message{
		From:      int32(binary.LittleEndian.Uint32(b[0:])),
		To:        int32(binary.LittleEndian.Uint32(b[4:])),
		Type:      MsgType(b[8]),
		SessionID: int(int64(binary.LittleEndian.Uint64(b[9:]))),
		Epoch:     binary.LittleEndian.Uint32(b[17:]),
		MsgID:     binary.LittleEndian.Uint64(b[21:]),
		AckFor:    binary.LittleEndian.Uint64(b[29:]),
		Hop: [2]int32{
			int32(binary.LittleEndian.Uint32(b[37:])),
			int32(binary.LittleEndian.Uint32(b[41:])),
		},
		Bandwidth: math.Float64frombits(binary.LittleEndian.Uint64(b[45:])),
		Lease:     binary.LittleEndian.Uint32(b[53:]),
		Trace:     binary.LittleEndian.Uint64(b[57:]),
		Watermark: binary.LittleEndian.Uint64(b[65:]),
	}
	if !m.Type.known() {
		return Message{}, fmt.Errorf("ctrlplane: unknown or retired message type %d", uint8(m.Type))
	}
	if math.IsNaN(m.Bandwidth) || math.IsInf(m.Bandwidth, 0) {
		return Message{}, fmt.Errorf("ctrlplane: non-finite bandwidth")
	}
	if (m.Type == MsgPrepare || m.Type == MsgXPrepare) && m.Bandwidth <= 0 {
		return Message{}, fmt.Errorf("ctrlplane: %s bandwidth %v is not > 0", m.Type, m.Bandwidth)
	}
	if m.Type != MsgBatch {
		if len(b) != msgWireSize {
			return Message{}, fmt.Errorf("ctrlplane: message frame is %d bytes, want %d", len(b), msgWireSize)
		}
		return m, nil
	}
	if len(b) < msgWireSize+4 {
		return Message{}, fmt.Errorf("ctrlplane: batch frame truncated before entry count")
	}
	n := binary.LittleEndian.Uint32(b[msgWireSize:])
	if n > maxBatchEntries {
		return Message{}, fmt.Errorf("ctrlplane: batch entry count %d exceeds limit", n)
	}
	want := msgWireSize + 4 + int(n)*batchEntryWireSize
	if len(b) != want {
		return Message{}, fmt.Errorf("ctrlplane: batch frame is %d bytes, want %d for %d entries", len(b), want, n)
	}
	if n > 0 {
		m.Batch = make([]BatchEntry, n)
	}
	for i := range m.Batch {
		eb := b[msgWireSize+4+i*batchEntryWireSize:]
		e := BatchEntry{
			Kind:  BatchEntryKind(eb[0]),
			ID:    int(int64(binary.LittleEndian.Uint64(eb[1:]))),
			Epoch: binary.LittleEndian.Uint32(eb[9:]),
			Hop: [2]int32{
				int32(binary.LittleEndian.Uint32(eb[13:])),
				int32(binary.LittleEndian.Uint32(eb[17:])),
			},
			BW: math.Float64frombits(binary.LittleEndian.Uint64(eb[21:])),
		}
		if e.Kind < EntryCommit || e.Kind > EntryRelease {
			return Message{}, fmt.Errorf("ctrlplane: unknown batch entry kind %d", uint8(e.Kind))
		}
		if math.IsNaN(e.BW) || math.IsInf(e.BW, 0) {
			return Message{}, fmt.Errorf("ctrlplane: non-finite batch entry bandwidth")
		}
		if _, peer := PeerRegion(m.To); e.Kind == EntryRelease && (e.BW < 0 || e.BW == 0 && !peer) {
			return Message{}, fmt.Errorf("ctrlplane: release entry bandwidth %v is not > 0", e.BW)
		}
		m.Batch[i] = e
	}
	return m, nil
}
