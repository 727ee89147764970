package ctrlplane

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"brokerset/internal/obs"
)

// Delivery is the at-least-once delivery engine under both commit
// protocols: the coordinator→agent one of a Plane and the home→transit
// region one of a federation Fabric each hold one. It owns the retry loop
// (per-message send budget, one virtual tick per round, optional seeded
// jitter), the settling of replies, the backlog of decided-but-undelivered
// requests with its lazy re-drive, and the per-target circuit breakers.
// What differs between the two protocols is three hooks: how a request is
// executed at its destination, which targets are already known to be down,
// and what a refusal of a backlogged request means.
//
// A message with a non-zero AckFor is a reply and settles the request it
// names; every other message is handed to Dispatch. Every request the
// engine sends carries its fencing watermark (see advance), one rule for
// both owners. Like its owners, a Delivery is not safe for concurrent use.
type Delivery struct {
	// Transport carries the messages; Retry is the tuning, defaults applied
	// (NewDelivery fills them). Flight, when non-nil, records sends, backlog
	// growth and breaker trips.
	Transport Transport
	Retry     RetryConfig
	Flight    *obs.FlightRecorder

	// Dispatch runs one non-reply message at its destination — the agent or
	// sub-coordinator state machine, which answers through Reply. Traffic
	// for a crashed or unknown destination is dropped there, or by the
	// owner's Transport before it gets that far.
	Dispatch func(m Message)
	// Down reports whether the owner's failure detector already knows the
	// target is down: nothing is sent to it, its requests stay pending for
	// the caller to abort or backlog, and they do not count against its
	// breaker. nil means no detector — only timeouts reveal a dead target,
	// which is what the breaker is for.
	Down func(addr int32) bool
	// Refused is called when a backlogged request comes back refused: the
	// decision it carried was durable, so the owner has to unwind it. It
	// runs inside the pump and may only mutate state, Cancel and Backlog.
	// nil ignores refusals (agents never refuse a decision record).
	Refused func(req Message)

	// Sent counts messages put on the transport, replies included; Retries
	// counts retransmissions (backlog re-sends too); Timeouts counts
	// requests that exhausted every attempt against a target not known to
	// be down; BreakerTrips counts circuits opened.
	Sent, Retries, Timeouts, BreakerTrips int

	layer string // flight-record source and error prefix
	// clock is the protocol's virtual time (Now): the owner ticks it once per
	// operation (Tick), the engine once per retry round and once per
	// Reconcile round, and it paces breaker cooldowns and lease expiry.
	clock   int
	nextMsg uint64
	// w is the fencing watermark: the lowest MsgID that may still need an
	// answer — every request in flight or backlogged, and whatever floor
	// reports. It never decreases, and every request carries it
	// (Message.Watermark), so a receiver knows an id below it for a straggler.
	w uint64
	// floor, when non-nil, reports the lowest MsgID the owner itself still
	// needs answered (math.MaxUint64: none): a Plane's attempts prepared and
	// not yet decided.
	floor    func() uint64
	breakers map[int32]*breaker
	// backlog holds decided-but-unacknowledged requests; Flush re-drives
	// them. backlogWait defers individual re-sends when RetryJitterTicks is
	// set, so a healed partition's catch-up traffic spreads over ticks.
	backlog     map[uint64]Message
	backlogWait map[uint64]int
	// ids, sent and wait are scratch kept across calls, so a round
	// allocates none of them: the sorted ids of one pass (sortedIDs), and
	// Broadcast's per-message send counts and jitter waits. One set
	// suffices because Broadcast and Flush never run inside each other on
	// one engine — the hooks reach other engines, not their own.
	ids        []uint64
	sent, wait map[uint64]int
	// jrng is the retry-jitter stream; nothing draws from it while
	// RetryJitterTicks is 0, so enabling jitter never perturbs the fault
	// schedules of existing seeds.
	jrng *rand.Rand
}

// breaker is one target's circuit-breaker state: consecutive timed-out
// requests, and the virtual-clock tick until which the circuit stays open.
type breaker struct {
	fails     int
	openUntil int
}

// NewDelivery builds an engine over tr, tuned by rc with zero fields taking
// defaults. layer names the owner in flight records and errors. Set the hooks
// before any traffic.
func NewDelivery(layer string, tr Transport, rc RetryConfig) *Delivery {
	return &Delivery{
		Transport:   tr,
		Retry:       rc.withDefaults(),
		layer:       layer,
		breakers:    make(map[int32]*breaker),
		backlog:     make(map[uint64]Message),
		backlogWait: make(map[uint64]int),
		sent:        make(map[uint64]int),
		wait:        make(map[uint64]int),
		jrng:        rand.New(rand.NewSource(2)),
	}
}

// Now returns the virtual time in ticks.
func (d *Delivery) Now() int { return d.clock }

// Tick advances virtual time by one tick.
func (d *Delivery) Tick() { d.clock++ }

// NextID returns a fresh message id. Retransmissions reuse a request's id;
// every new request and every reply takes its own.
func (d *Delivery) NextID() uint64 {
	d.nextMsg++
	return d.nextMsg
}

// advance moves the watermark up to the lowest id still outstanding: the
// requests of the broadcast about to start (inflight), the backlog, the
// owner's floor, and otherwise the next id to be issued. It returns the
// watermark, which the requests sent next carry.
func (d *Delivery) advance(inflight []Message) uint64 {
	lo := d.nextMsg + 1
	for _, m := range inflight {
		lo = min(lo, m.MsgID)
	}
	for id := range d.backlog {
		lo = min(lo, id)
	}
	if d.floor != nil {
		lo = min(lo, d.floor())
	}
	d.w = max(d.w, lo)
	return d.w
}

// Send pushes a message onto the transport and counts it.
func (d *Delivery) Send(m Message) {
	d.Sent++
	d.Flight.Record(d.layer, "send", int64(d.clock), "%s %d->%d session %d.%d msg %d",
		m.Type.String(), int64(m.From), int64(m.To), int64(m.SessionID), int64(m.Epoch), int64(m.MsgID))
	d.Transport.Send(m)
}

// Reply answers req with a message of type t from req's destination.
func (d *Delivery) Reply(req Message, t MsgType) {
	d.Send(Message{
		From: req.To, To: req.From, Type: t,
		SessionID: req.SessionID, Epoch: req.Epoch,
		MsgID: d.NextID(), AckFor: req.MsgID,
		Trace: req.Trace,
	})
}

// rpcOutcome is the result of one broadcast round-trip set.
type rpcOutcome struct {
	nacked  map[uint64]Message // MsgID -> original request; nil until a refusal
	pending map[uint64]Message // unanswered after all attempts
}

// Broadcast sends msgs and pumps the transport, retrying unacknowledged
// messages one virtual tick apart until every message is answered, every
// message's MaxAttempts send budget is spent, or ctx expires. It returns
// the requests that were refused (nil when none was) and the ones still
// unanswered, by MsgID, each carrying the watermark it was sent with; the
// rest were acknowledged. Both maps are the caller's to keep.
// Under RetryConfig.RetryJitterTicks a seeded-random 0..RetryJitterTicks
// extra rounds pass between a message's sends, rolled independently per
// message — two setups whose retries would collide on the same tick
// de-synchronize instead of hammering the same target in lockstep; with
// jitter 0 every wait is 0 and the jitter stream is never drawn from.
// Requests to targets Down reports are not wasted on the wire. Timeout
// streaks feed the circuit breakers — unless ctx ended the round: a caller
// that gave up says nothing about the target's health.
func (d *Delivery) Broadcast(ctx context.Context, msgs []Message) (nacked, pending map[uint64]Message) {
	ctx, span := obs.StartSpan(ctx, "2pc.broadcast")
	defer span.End()
	if len(msgs) > 0 {
		span.Annotate("type", msgs[0].Type.String())
		span.AnnotateInt("msgs", int64(len(msgs)))
	}
	out := rpcOutcome{pending: make(map[uint64]Message, len(msgs))}
	w := d.advance(msgs)
	for _, m := range msgs {
		m.Watermark = w
		out.pending[m.MsgID] = m
	}
	jitter, budget := d.Retry.RetryJitterTicks, d.Retry.MaxAttempts
	sent, wait := d.sent, d.wait
	clear(sent)
	clear(wait)
	sendable := func(m Message) bool { return !d.down(m.To) && sent[m.MsgID] < budget }
	for round := 0; len(out.pending) > 0 && round < budget*(jitter+1) && ctx.Err() == nil; round++ {
		actx, asp := obs.StartSpan(ctx, "2pc.attempt")
		asp.AnnotateInt("attempt", int64(round))
		asp.AnnotateInt("pending", int64(len(out.pending)))
		if round > 0 {
			_, bsp := obs.StartSpan(actx, "2pc.backoff")
			d.clock++
			d.Transport.Advance()
			bsp.End()
		}
		for _, id := range d.sortedIDs(out.pending) {
			m := out.pending[id]
			if !sendable(m) {
				continue
			}
			if wait[id] > 0 {
				wait[id]--
				continue
			}
			if sent[id] > 0 {
				d.Retries++
			}
			_, ssp := obs.StartSpan(actx, "2pc.send")
			ssp.Annotate("type", m.Type.String())
			ssp.AnnotateInt("to", int64(m.To))
			d.Send(m)
			ssp.End()
			sent[id]++
			if jitter > 0 && sent[id] < budget {
				wait[id] = d.jrng.Intn(jitter + 1)
			}
		}
		d.pump(&out)
		asp.End()
		// When everything still unanswered is known down (the failure
		// detector already fired) or out of budget, more rounds cannot help.
		live := false
		for _, m := range out.pending {
			live = live || sendable(m)
		}
		if !live {
			break
		}
	}
	if ctx.Err() == nil {
		for _, id := range d.sortedIDs(out.pending) {
			if m := out.pending[id]; !d.down(m.To) {
				d.breakerFail(m.To)
			}
		}
	}
	return out.nacked, out.pending
}

func (d *Delivery) down(addr int32) bool { return d.Down != nil && d.Down(addr) }

// sortedIDs returns m's keys in ascending order, in d.ids: valid until the
// next call.
func (d *Delivery) sortedIDs(m map[uint64]Message) []uint64 {
	d.ids = d.ids[:0]
	for id := range m {
		d.ids = append(d.ids, id)
	}
	slices.Sort(d.ids)
	return d.ids
}

// settledFormats spells each reply type's name into the backlog_settled
// record's format, because a flight event carries one string: the
// request's type.
var settledFormats = func() (f [len(msgNames)]string) {
	for t, name := range msgNames {
		f[t] = "%s to %d session %d.%d: " + name
	}
	return f
}()

// settledFormat returns the backlog_settled format for a reply of type t.
func settledFormat(t MsgType) string {
	if t.known() {
		return settledFormats[t]
	}
	return "%s to %d session %d.%d: " + t.String()
}

// Pump drains the transport outside a broadcast: requests run at their
// destinations, replies settle backlog entries.
func (d *Delivery) Pump() { d.pump(nil) }

// pump drains the transport: replies settle the in-flight broadcast (out,
// nil outside one) or the backlog, everything else is dispatched.
func (d *Delivery) pump(out *rpcOutcome) {
	for {
		m, ok := d.Transport.Recv()
		if !ok {
			return
		}
		if m.AckFor == 0 {
			d.Dispatch(m)
			continue
		}
		refused := m.Type == MsgPrepareNack || m.Type == MsgXPrepareNack || m.Type == MsgBatchNack
		if out != nil {
			if req, ok := out.pending[m.AckFor]; ok {
				delete(out.pending, m.AckFor)
				if refused {
					if out.nacked == nil {
						out.nacked = make(map[uint64]Message)
					}
					out.nacked[m.AckFor] = req
				}
				d.breakerOK(m.From)
				continue
			}
		}
		// Duplicate or stale replies match nothing and are ignored.
		if req, ok := d.backlog[m.AckFor]; ok {
			d.dropBacklog(m.AckFor)
			d.breakerOK(m.From)
			d.Flight.Record(d.layer, "backlog_settled", int64(d.clock), settledFormat(m.Type),
				req.Type.String(), int64(req.To), int64(req.SessionID), int64(req.Epoch))
			if refused && d.Refused != nil {
				d.Refused(req)
			}
		}
	}
}

// dropBacklog retires a backlog entry together with its re-send deferral.
func (d *Delivery) dropBacklog(id uint64) {
	delete(d.backlog, id)
	delete(d.backlogWait, id)
}

// Backlog records decided-but-undelivered requests for lazy redelivery.
func (d *Delivery) Backlog(msgs ...Message) {
	for _, m := range msgs {
		d.Flight.Record(d.layer, "backlog", int64(d.clock), "%s to %d session %d.%d msg %d",
			m.Type.String(), int64(m.To), int64(m.SessionID), int64(m.Epoch), int64(m.MsgID))
		d.backlog[m.MsgID] = m
	}
}

// Backlogged returns the count of decided-but-undelivered requests.
func (d *Delivery) Backlogged() int { return len(d.backlog) }

// Cancel retires every backlogged request match selects: the owner has
// superseded the decision it carried. A straggling reply to a cancelled
// request settles nothing.
func (d *Delivery) Cancel(match func(m Message) bool) {
	for id, m := range d.backlog {
		if match(m) {
			d.dropBacklog(id)
		}
	}
}

// Flush re-sends every backlogged request whose target is not known down
// and pumps the replies — lazy anti-entropy, run at the top of every
// operation. A re-send carries the current watermark.
func (d *Delivery) Flush() {
	w := d.advance(nil)
	if len(d.backlog) == 0 {
		return
	}
	jitter := d.Retry.RetryJitterTicks
	for _, id := range d.sortedIDs(d.backlog) {
		m := d.backlog[id]
		if d.down(m.To) {
			continue // redelivered once the target is back
		}
		if m.Watermark != w {
			m.Watermark = w
			d.backlog[id] = m
		}
		if jitter > 0 {
			// Spread the post-heal catch-up storm: each backlog entry's
			// re-sends are deferred independently, so a lifted partition's
			// accumulated decisions trickle out over ticks.
			if w := d.backlogWait[id]; w > 0 {
				d.backlogWait[id] = w - 1
				continue
			}
			d.backlogWait[id] = d.jrng.Intn(jitter + 1)
		}
		d.Retries++
		d.Send(m)
	}
	d.pump(nil)
	d.Transport.Advance()
}

// Reconcile drives the backlog, one virtual tick per round, until every
// outstanding decision is acknowledged or attempts run out. Call it after
// recovering crashed targets and lifting partitions to reach quiescence.
func (d *Delivery) Reconcile(ctx context.Context) error {
	for attempt := 0; len(d.backlog) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt >= 4*d.Retry.MaxAttempts*(d.Retry.RetryJitterTicks+1) {
			return fmt.Errorf("%s: %d backlog message(s) undeliverable after %d rounds", d.layer, len(d.backlog), attempt)
		}
		d.clock++
		d.Flush()
	}
	return nil
}

// BreakerOpen reports whether the circuit toward addr is open at the
// current virtual time.
func (d *Delivery) BreakerOpen(addr int32) bool {
	br := d.breakers[addr]
	return br != nil && d.clock < br.openUntil
}

// breakerFail records one timed-out request against addr, tripping the
// breaker on a streak.
func (d *Delivery) breakerFail(addr int32) {
	br := d.breakers[addr]
	if br == nil {
		br = &breaker{}
		d.breakers[addr] = br
	}
	br.fails++
	d.Timeouts++
	if br.fails >= d.Retry.BreakerThreshold && d.clock >= br.openUntil {
		br.openUntil = d.clock + d.Retry.BreakerCooldown
		d.BreakerTrips++
		d.Flight.Record(d.layer, "breaker_trip", int64(d.clock), "%d open until tick %d", "", int64(addr), int64(br.openUntil))
	}
}

// breakerOK resets addr's failure streak after a successful round-trip.
func (d *Delivery) breakerOK(addr int32) {
	if br := d.breakers[addr]; br != nil {
		br.fails = 0
	}
}
