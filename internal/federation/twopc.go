package federation

import (
	"context"
	"errors"
	"fmt"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// Session is one committed federated (possibly cross-region) reservation: a
// stitched path whose per-region segments are each an ordinary ctrlplane
// session in the owning region, bound together by the two-level commit.
//
// A Session is immutable once handed out, like ctrlplane.Session: the
// fabric's table and every caller share the record, and nobody writes it. A
// heal that re-stitches the session answers a new record at Epoch+1 and the
// table swaps it in; a rollback, a teardown or a heal that has to abort takes
// the record out of the table. The table holds only standing sessions.
type Session struct {
	ID        int
	Src, Dst  int32 // global node ids
	Bandwidth float64
	Stitched  *StitchedPath
	// Epoch counts establish attempts: Setup is epoch 1, every Heal
	// re-stitch is the next. Cross-region messages are scoped by (ID, Epoch),
	// fencing stragglers from superseded attempts.
	Epoch uint32
}

// ErrNoSession is Teardown's answer for a session the fabric does not hold:
// never set up, already released, rolled back, or aborted by the healer.
var ErrNoSession = errors.New("federation: no such session")

// Setup reserves bandwidth on a stitched cross-region path end to end with
// a two-level commit: the home region (src's region) prepares its own
// segment directly and drives every transit region's sub-coordinator
// through X-PREPARE, then — once every segment holds — decides commit for
// every region holding one, itself first. Presumed abort end to end: any
// nack, timeout, or refused commit leaves every region with nothing reserved.
// The session returned is the fabric's own record, shared: read it, never
// write it.
func (f *Fabric) Setup(ctx context.Context, src, dst int32, bw float64, opts routing.Options) (*Session, error) {
	if bw <= 0 {
		return nil, fmt.Errorf("federation: bandwidth must be positive, got %f", bw)
	}
	ctx, span := obs.StartSpan(ctx, "federation.setup")
	defer span.End()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tick()
	f.stats.Setups++
	home := f.part.RegionOf(src)
	if f.regions[home].crashed {
		return nil, fmt.Errorf("federation: home region %d crashed", home)
	}
	sp, err := f.stitchPath(ctx, src, dst, opts.Reserving(bw))
	if err != nil {
		return nil, err
	}
	// Fast-fail when a transit region's circuit is open: don't burn a
	// prepare round against a peer that has been timing out.
	for _, seg := range sp.Segments[1:] {
		if f.d.BreakerOpen(ctrlplane.PeerAddr(seg.Region)) {
			f.stats.BreakerFastFails++
			f.stats.Aborts++
			return nil, fmt.Errorf("federation: circuit open toward region %d", seg.Region)
		}
	}
	f.nextID++
	s := &Session{ID: f.nextID, Epoch: 1, Src: src, Dst: dst, Bandwidth: bw, Stitched: sp}
	span.Annotatef("session", "%d.%d", s.ID, s.Epoch)
	if err := f.establishStitched(ctx, s); err != nil {
		return nil, err
	}
	f.sessions[s.ID] = s
	return s, nil
}

// localPath maps a global-id path into region-local ids; every node must be
// inside the region subtopology.
func localPath(reg *Region, nodes []int32) ([]int32, bool) {
	out := make([]int32, len(nodes))
	for i, g := range nodes {
		l, ok := reg.Local(g)
		if !ok {
			return nil, false
		}
		out[i] = l
	}
	return out, true
}

// segmentRegions lists the regions that hold a segment of sp, the home region
// first when it holds one (zero-length handovers reserve nothing and are
// skipped).
func segmentRegions(sp *StitchedPath) []int {
	var out []int
	for _, seg := range sp.Segments {
		if len(seg.Nodes) >= 2 {
			out = append(out, seg.Region)
		}
	}
	return out
}

// records builds the home region's decision about s's current attempt, one
// record per region in regions. Every commit, abort and release is built
// here, so every one of them rides the trace of the request that made the
// decision.
// The home region is a destination like the others, except that its entry
// never touches the bus: it is applied on the spot. The error is its refusal
// — only a commit can be refused — and then no record is built at all.
func (f *Fabric) records(ctx context.Context, s *Session, kind ctrlplane.BatchEntryKind, regions []int) ([]ctrlplane.Message, error) {
	entry := ctrlplane.BatchEntry{Kind: kind, ID: s.ID, Epoch: s.Epoch}
	home := s.Stitched.Segments[0].Region
	msgs := make([]ctrlplane.Message, 0, len(regions))
	for _, q := range regions {
		if q == home {
			if err := f.regions[home].applyDecision(ctx, entry); err != nil {
				return nil, err
			}
			continue
		}
		msgs = append(msgs, ctrlplane.Message{
			From: ctrlplane.PeerAddr(home), To: ctrlplane.PeerAddr(q),
			Type: ctrlplane.MsgBatch, SessionID: s.ID, Epoch: s.Epoch,
			MsgID: f.d.NextID(), Trace: obs.TraceIDFrom(ctx),
			Batch: []ctrlplane.BatchEntry{entry},
		})
	}
	return msgs, nil
}

// decide delivers the home region's decision about s's current attempt to
// every region in regions and returns how many refused it. Delivery is lazy:
// records still unanswered are backlogged — the backlog is durable, like
// every Region.subs — and re-driven by ticks, surviving region crash and
// recovery. Abort and release records go to every segment region, also
// one whose X-PREPARE was never acked — "never acked" can mean "delivered,
// ack lost" — and the receiver goes by its own record. A commit the home
// region itself refuses goes no further.
func (f *Fabric) decide(ctx context.Context, s *Session, kind ctrlplane.BatchEntryKind, regions []int) int {
	msgs, err := f.records(ctx, s, kind, regions)
	if err != nil {
		return 1
	}
	nacked, pending := f.d.Broadcast(ctx, msgs)
	for _, m := range pending {
		f.d.Backlog(m)
	}
	return len(nacked)
}

// establishStitched runs the two-level commit for one (session, epoch)
// attempt over s's stitched path. Shared by Setup and the healer (which runs
// it for the next epoch's record). It only reads s: the caller puts the
// record in the table once it returns nil.
func (f *Fabric) establishStitched(ctx context.Context, s *Session) error {
	sp := s.Stitched
	fk := fedKey{ID: s.ID, Epoch: s.Epoch}
	home := sp.Segments[0].Region
	hreg := f.regions[home]
	aborted := func(err error) error {
		f.stats.Aborts++
		return err
	}

	// Phase 1a: hold the home segment directly on the home plane.
	if seg := sp.Segments[0]; len(seg.Nodes) >= 2 {
		local, ok := localPath(hreg, seg.Nodes)
		if !ok {
			return aborted(fmt.Errorf("federation: home segment leaves region %d", home))
		}
		if err := hreg.hold(ctx, fk, local, s.Bandwidth); err != nil {
			return aborted(fmt.Errorf("federation: home prepare: %w", err))
		}
	}

	// Phase 1b: X-PREPARE every transit region's segment (the remote
	// sub-coordinator resolves the concrete path between the border
	// endpoints through its own query plane and holds it under our lease).
	var msgs []ctrlplane.Message
	for _, seg := range sp.Segments[1:] {
		if len(seg.Nodes) < 2 {
			continue // zero-length handover, nothing to reserve
		}
		msgs = append(msgs, ctrlplane.Message{
			From: ctrlplane.PeerAddr(home), To: ctrlplane.PeerAddr(seg.Region),
			Type: ctrlplane.MsgXPrepare, SessionID: s.ID, Epoch: s.Epoch,
			MsgID: f.d.NextID(), Hop: [2]int32{seg.Nodes[0], seg.Nodes[len(seg.Nodes)-1]},
			Bandwidth: s.Bandwidth, Lease: uint32(f.d.Retry.LeaseTTL),
			Trace: obs.TraceIDFrom(ctx),
		})
	}
	regions := segmentRegions(sp)
	nacked, pending := f.d.Broadcast(ctx, msgs)
	if hreg.crashed {
		// The home coordinator died mid-setup. No cleanup from here: the
		// home's own holds resolve by WAL recovery, and every remote hold
		// self-cleans when its lease lapses.
		return fmt.Errorf("federation: home region %d crashed mid-setup", home)
	}
	if len(nacked) > 0 || len(pending) > 0 {
		f.flight.Record("federation", "decide", int64(f.d.Now()), "session %d.%d ABORT (%d nack, %d unreachable)", "",
			int64(s.ID), int64(s.Epoch), int64(len(nacked)), int64(len(pending)))
		f.decide(ctx, s, ctrlplane.EntryAbort, regions)
		return aborted(fmt.Errorf("federation: session %d.%d aborted: %d region(s) nacked, %d unreachable",
			s.ID, s.Epoch, len(nacked), len(pending)))
	}

	// Commit point: every segment holds.
	f.flight.Record("federation", "decide", int64(f.d.Now()), "session %d.%d COMMIT (%d transit region(s))", "",
		int64(s.ID), int64(s.Epoch), int64(len(msgs)))
	if refused := f.decide(ctx, s, ctrlplane.EntryCommit, regions); refused > 0 {
		// A region's lease expired before our commit reached it and it already
		// presumed abort — a transit region's while the record was on the
		// wire, or (pathological) our own, the coordinator having outwaited
		// its TTL. Unwind the committed remainder so the session is
		// conserved-aborted everywhere, and drive the aborts out now rather
		// than at the next tick.
		f.stats.CommitNacks += refused
		f.rollback(ctx, s)
		f.d.Flush()
		return fmt.Errorf("federation: session %d.%d rolled back: %d region(s) refused late commit",
			s.ID, s.Epoch, refused)
	}
	f.stats.Commits++
	return nil
}

// rollback conserved-aborts an attempt that reached the commit point but had
// a region refuse the commit — on the spot, or when a backlogged record
// finally got through to a region whose lease had lapsed while it or the bus
// was down. Commit records still undelivered are cancelled and every segment
// region gets an abort (one where the commit did land releases fully): the
// home region's applied on the spot, the transit regions' enqueued. It can
// run inside the message pump, so it only mutates state and enqueues: the
// surrounding tick loop drives the records out.
func (f *Fabric) rollback(ctx context.Context, s *Session) {
	f.stats.Rollbacks++
	f.flight.Record("federation", "rollback", int64(f.d.Now()), "session %d.%d: commit refused", "", int64(s.ID), int64(s.Epoch))
	f.d.Cancel(func(m ctrlplane.Message) bool { return m.SessionID == s.ID && m.Epoch == s.Epoch })
	aborts, _ := f.records(ctx, s, ctrlplane.EntryAbort, segmentRegions(s.Stitched)) // only a commit can be refused
	f.d.Backlog(aborts...)
	f.stats.Aborts++
}

// commitRefused is the delivery engine's hook for a backlogged record that
// came back refused: if it was the commit of the attempt the table holds,
// the session leaves the table and rolls back, under the trace the commit
// rode. A refusal of a superseded attempt's commit matches nothing.
func (f *Fabric) commitRefused(req ctrlplane.Message) {
	s := f.sessions[req.SessionID]
	if s == nil || s.Epoch != req.Epoch {
		return
	}
	delete(f.sessions, s.ID)
	ctx, span := f.tracer.Adopt(context.Background(), "federation.rollback", req.Trace)
	defer span.End()
	f.rollback(ctx, s)
}

// Teardown releases the committed federated session h names — by ID: h is a
// record Setup or Session handed out, possibly superseded by a heal since —
// in every region it crosses. Releases toward crashed or unreachable regions
// count against their breaker and are backlogged.
func (f *Fabric) Teardown(ctx context.Context, h *Session) error {
	if h == nil {
		return ErrNoSession
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sessions[h.ID]
	if s == nil {
		return ErrNoSession
	}
	ctx, span := obs.StartSpan(ctx, "federation.teardown")
	defer span.End()
	span.Annotatef("session", "%d.%d", s.ID, s.Epoch)
	f.tick()
	if home := f.part.RegionOf(s.Src); f.regions[home].crashed {
		return fmt.Errorf("federation: home region %d crashed", home)
	}
	f.decide(ctx, s, ctrlplane.EntryRelease, segmentRegions(s.Stitched))
	f.stats.Teardowns++
	delete(f.sessions, s.ID)
	return nil
}

// subSpans names a sub-coordinator's span after the decision it applies.
var subSpans = [...]string{
	ctrlplane.EntryCommit:  "federation.sub_commit",
	ctrlplane.EntryAbort:   "federation.sub_abort",
	ctrlplane.EntryRelease: "federation.sub_release",
}

// dispatch runs one peer-bus message at its target region: X-PREPARE and
// decision records at that region's sub-coordinator, gossip at its digest
// store. Every request is answered — the home coordinator's retries are
// tamed by re-acking from the durable sub-record, not by remembering
// message ids — and first raises the region's peer watermark to the one it
// carries. The regionBus has already dropped whatever was addressed to a
// crashed region. Sub-coordinator spans adopt the trace that rode the wire:
// they join the originating request's trace even though the parent span ran
// in another region (stitched trace — one trace ID, one root per region).
func (f *Fabric) dispatch(m ctrlplane.Message) {
	q, _ := ctrlplane.PeerRegion(m.To)
	reg := f.regions[q]
	annotate := func(sub *obs.Span, id int, epoch uint32) {
		sub.Annotatef("region", "%d", q)
		sub.Annotatef("session", "%d.%d", id, epoch)
	}
	reg.advance(m.Watermark) // gossip carries none
	switch m.Type {
	case ctrlplane.MsgXPrepare:
		ctx, sub := f.tracer.Adopt(context.Background(), "federation.sub_prepare", m.Trace)
		annotate(sub, m.SessionID, m.Epoch)
		reply := ctrlplane.MsgXPrepareNack
		if reg.prepareSub(ctx, m) {
			reply = ctrlplane.MsgXPrepareAck
		}
		sub.End()
		f.d.Reply(m, reply)
	case ctrlplane.MsgBatch:
		reply := ctrlplane.MsgBatchAck
		for _, e := range m.Batch {
			ctx, sub := f.tracer.Adopt(context.Background(), subSpans[e.Kind], m.Trace)
			annotate(sub, e.ID, e.Epoch)
			if reg.applyDecision(ctx, e) != nil {
				reply = ctrlplane.MsgBatchNack
			}
			sub.End()
		}
		f.d.Reply(m, reply)
	case ctrlplane.MsgGossip:
		f.handleGossip(q, m)
	}
}
