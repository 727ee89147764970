package ctrlplane

import (
	"fmt"
	"maps"
	"slices"

	"brokerset/internal/graph"
)

// The capacity ledger is two columns over the topology's links, a link's row
// being the arc index of its lower endpoint's side (linkOf): Plane.avail, the
// residual capacity the coalition accounts for the link, and Plane.owner, the
// broker agent accounting it (-1: neither endpoint is a broker, the link is
// unmanaged). The owner column always agrees with ownerOf under the current
// membership. An agent is a view over the rows it owns — it keeps only its
// holds, dedup memory and fencing — so a membership change rewrites the
// owner of the rows whose endpoints joined or left and nothing else, and
// capacity belongs to the link, not to whichever agent held or released it.
// A crashed agent's rows read as lost (Available is 0) until Recover
// rewrites them from its WAL.

// agent is one broker's volatile protocol state: per-attempt holds, dedup
// memory, the fencing record of finalized attempts, and the watermark that
// bounds the last two. All of it is lost on Crash; the WAL is the durable
// side.
type agent struct {
	id    int32
	holds map[sessKey][]hold
	// seen holds the MsgIDs the agent logged, and done the attempts it
	// finalized, at or above w — plus whatever fell below w since the last
	// checkpoint, which drops it (Plane.checkpoint).
	seen map[uint64]struct{}
	done map[sessKey]fence
	// w is the highest watermark a request carried here: a request below it
	// is a straggler.
	w uint64
}

// newAgent returns broker b's agent with empty protocol state and watermark
// w.
func newAgent(b int32, w uint64) *agent {
	return &agent{
		id:    b,
		holds: make(map[sessKey][]hold),
		seen:  make(map[uint64]struct{}),
		done:  make(map[sessKey]fence),
		w:     w,
	}
}

type hold struct {
	link int32
	bw   float64
	// expires is the virtual clock tick after which the hold's lease has
	// lapsed (0 = no lease).
	expires int
	// id is the MsgID of the PREPARE that placed the hold.
	id uint64
}

// ledgerRow is one link's row with its residual, as a WAL record carries it.
type ledgerRow struct {
	Link  int32
	Avail float64
}

// linkOf returns link (u,v)'s ledger row in g: the arc index of u→v for
// u < v; -1 for a non-edge or a node outside g.
func linkOf(g *graph.Graph, u, v int32) int32 {
	if u > v {
		u, v = v, u
	}
	if u < 0 || int(v) >= g.NumNodes() {
		return -1
	}
	return int32(g.ArcOf(int(u), int(v)))
}

// link returns link (u,v)'s ledger row (-1: not a link).
func (p *Plane) link(u, v int32) int32 { return linkOf(p.top.Graph, u, v) }

// walOf returns broker b's durable log, creating it on first use.
func (p *Plane) walOf(b int32) *wal {
	w := p.wals[b]
	if w == nil {
		w = &wal{}
		p.wals[b] = w
	}
	return w
}

// logRecord appends r to broker b's durable log and returns the log. Every
// record reaches a log here.
func (p *Plane) logRecord(b int32, r walRecord) *wal {
	w := p.walOf(b)
	w.append(r)
	if p.walAppended != nil {
		p.walAppended(b, r)
	}
	return w
}

// logCheckpoint checkpoints broker b's log with img: the checkpoint is
// appended, then everything before it dropped.
func (p *Plane) logCheckpoint(b int32, img *image) {
	p.logRecord(b, walRecord{Op: walCheckpoint, Image: img}).truncate()
	p.checkpoints++
}

// ownerOf returns the broker agent owning link (u,v): the lower-id broker
// endpoint. ok is false when neither endpoint is a broker.
func (p *Plane) ownerOf(u, v int32) (int32, bool) { return ownerIn(p.inB, u, v) }

// ownerIn is ownerOf under the membership mask inB.
func ownerIn(inB []bool, u, v int32) (int32, bool) {
	uB, vB := inB[u], inB[v]
	switch {
	case uB && vB:
		if u < v {
			return u, true
		}
		return v, true
	case uB:
		return u, true
	case vB:
		return v, true
	default:
		return 0, false
	}
}

// hopOwners returns the owner of every hop of nodes, index-aligned with the
// hops; a hop neither of whose endpoints is a broker is an error.
func (p *Plane) hopOwners(nodes []int32) ([]int32, error) {
	owners := make([]int32, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		owner, ok := p.ownerOf(nodes[i], nodes[i+1])
		if !ok {
			return nil, fmt.Errorf("ctrlplane: hop (%d,%d) has no broker owner — path not dominated",
				nodes[i], nodes[i+1])
		}
		owners = append(owners, owner)
	}
	return owners, nil
}

func hopKey(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// rowsOf returns broker b's ledger rows with their residuals, in ascending
// link order: the rows of its incident links it owns. A link to a
// higher-id neighbor is b's own arc, so only the lower-id ones are looked up.
func (p *Plane) rowsOf(b int32) []ledgerRow {
	g := p.top.Graph
	out := make([]ledgerRow, 0, g.Degree(int(b)))
	off := int32(g.ArcOffset(int(b)))
	for i, v := range g.Neighbors(int(b)) {
		l := off + int32(i)
		if v < b {
			l = p.link(b, v)
		}
		if p.owner[l] == b {
			out = append(out, ledgerRow{l, p.avail[l]})
		}
	}
	return out
}

// credit gives bw back to link l on behalf of agent id: the hold of an
// aborted attempt, or a released hop. The capacity is the link's, so when the
// link has moved to another agent since the hold was placed or the release
// decided, the credit still lands on its row, and the new owner's log records
// it so that its replay sees it too. An unmanaged link takes nothing: it
// seeds from the metrics residual, which carries every decided release and
// no hold, when a broker endpoint joins again.
func (p *Plane) credit(id, l int32, bw float64) {
	o := p.owner[l]
	if o < 0 {
		return
	}
	p.avail[l] += bw
	if o != id {
		p.logRecord(o, walRecord{Op: walCredit, Link: l, BW: bw})
		p.compact(o)
	}
}

// compact checkpoints live member b's log once its tail has passed its
// budget. Call it only where b's state is whole — after a logged record has
// been applied — since the checkpoint is taken from it. A crashed member's
// log is left to grow until Recover, which has its state back.
func (p *Plane) compact(b int32) {
	if a := p.agents[b]; a != nil && !p.crashed[b] && p.wals[b].full() {
		p.checkpoint(a)
	}
}

// checkpoint appends a checkpoint of live agent a to its log, dropping every
// record before it, and forgets what its watermark has passed: the fencing
// and dedup memory below it, and the commit counts of attempts no longer
// fenced. Only clipped hold slices go into the image, so neither the agent
// nor a replay ever appends into one.
func (p *Plane) checkpoint(a *agent) {
	img := &image{
		Rows:  p.rowsOf(a.id),
		Holds: make(map[sessKey][]hold, len(a.holds)),
		Done:  make(map[sessKey]fence),
		W:     a.w,
	}
	for k, hs := range a.holds {
		img.Holds[k] = slices.Clip(hs)
	}
	for k, f := range a.done {
		if f.at >= a.w {
			img.Done[k] = f
		}
	}
	for id := range a.seen {
		if id >= a.w {
			img.Seen = append(img.Seen, id)
		}
	}
	for k, n := range p.wals[a.id].commitCounts() {
		if _, fenced := img.Done[k]; fenced {
			if img.Commits == nil {
				img.Commits = make(map[sessKey]int)
			}
			img.Commits[k] = n
		}
	}
	p.logCheckpoint(a.id, img)
	a.done = maps.Clone(img.Done)
	a.seen = make(map[uint64]struct{}, len(img.Seen))
	for _, id := range img.Seen {
		a.seen[id] = struct{}{}
	}
}

// SetBrokers replaces the coalition membership, migrating the ledger rows
// whose owner changes — only links with an endpoint that joined or left can
// change owner (ownerOf picks the lower-id broker endpoint), so only the rows
// of added and removed brokers are walked. A row that changes owner keeps its
// residual, whether its old owner is up or crashed; holds on it stay with the
// agent that placed them. A row that gains its first broker endpoint seeds
// from the metrics residual, which is exact there: nobody can hold on an
// unmanaged row or be owed its release. A row that loses every broker
// endpoint drops out of the ledger. A crashed member is a member like any
// other: surviving members keep their holds, dedup memory, fencing and
// backlog, and each one whose rows changed logs one migration record (the
// links it lost, then the links it gained with their residuals); only an
// added member starts a log, with a checkpoint of its rows. A departing
// member settles what it was sent before its agent and its log go (depart).
// Crash marks and breaker state persist across membership changes (they key
// off the node id). Added and removed report the membership delta.
func (p *Plane) SetBrokers(brokers []int32) (added, removed []int32) {
	newIn := make([]bool, len(p.inB))
	for _, b := range brokers {
		newIn[b] = true
	}
	for u := range p.inB {
		switch {
		case newIn[u] && !p.inB[u]:
			added = append(added, int32(u))
		case !newIn[u] && p.inB[u]:
			removed = append(removed, int32(u))
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil, nil
	}
	oldIn := p.inB
	p.inB = newIn
	moves := make(map[int32]*ledgerDelta) // surviving member -> its migration
	moveOf := func(b int32) *ledgerDelta {
		d := moves[b]
		if d == nil {
			d = &ledgerDelta{}
			moves[b] = d
		}
		return d
	}
	g := p.top.Graph
	for _, b := range slices.Concat(added, removed) {
		for _, v := range g.Neighbors(int(b)) {
			if oldIn[v] != newIn[v] && v < b {
				continue // walked from v
			}
			was, had := ownerIn(oldIn, b, v)
			now, has := ownerIn(newIn, b, v)
			if had && has && was == now {
				continue
			}
			l := p.link(b, v)
			if had && newIn[was] {
				d := moveOf(was)
				d.Lost = append(d.Lost, l)
			}
			if !has {
				p.owner[l] = -1
				continue
			}
			if !had {
				p.avail[l] = p.metrics.Residual(b, v)
			}
			p.owner[l] = now
			if oldIn[now] {
				d := moveOf(now)
				d.Gained = append(d.Gained, ledgerRow{l, p.avail[l]})
			}
		}
	}
	for b, d := range moves {
		p.logRecord(b, walRecord{Op: walMigrate, Ledger: d})
		p.compact(b)
	}
	for _, b := range added {
		p.agents[b] = newAgent(b, p.d.w)
		p.logCheckpoint(b, &image{Rows: p.rowsOf(b), W: p.d.w})
	}
	for _, b := range removed {
		p.depart(b)
	}
	p.d.Cancel(func(m Message) bool { return p.agents[m.To] == nil })
	p.engine.SetBrokers(brokers)
	p.version++
	return added, removed
}

// depart settles departing member b's account on the rows' new owners and
// drops its agent and its log. Every record backlogged toward b that b has
// not applied is applied on its behalf — a release credits its hop, an abort
// credits b's holds of that attempt, a commit retires them — and every hold
// still undecided is presumed aborted (resolve) and credited. A crashed
// member's holds, fencing and applied message ids come from its log (its
// latest checkpoint and the tail: a backlogged id is at or above the
// coordinator's watermark, which no agent's passes, so a checkpoint never
// dropped it). Credits go through credit, so they land wherever the rows went
// and are logged there; a row that became unmanaged takes none.
func (p *Plane) depart(b int32) {
	a := p.agents[b]
	holds, done, seen := a.holds, a.done, a.seen
	if p.crashed[b] {
		_, holds, done, seen = p.wals[b].replay(p.top.Graph)
	}
	g := p.top.Graph
	credit := func(l int32, bw float64) { p.credit(b, l, bw) }
	for _, id := range sortedIDs(p.d.backlog) {
		if m := p.d.backlog[id]; m.To == b {
			if _, applied := seen[id]; !applied {
				applyBatchEntries(g, holds, done, m.Batch, id, credit)
			}
		}
	}
	var entries []BatchEntry
	for _, key := range inDoubt(holds) {
		entries = append(entries, p.resolve(key))
	}
	applyBatchEntries(g, holds, done, entries, 0, credit)
	delete(p.agents, b)
	delete(p.wals, b)
}

// Available returns the ledgered available capacity of the link (0 when
// unmanaged, or when its owner is crashed: the row reads as lost until
// Recover replays the owner's WAL).
func (p *Plane) Available(u, v int32) float64 {
	l := p.link(u, v)
	if l < 0 {
		return 0
	}
	if o := p.owner[l]; o < 0 || p.crashed[o] {
		return 0
	}
	return p.avail[l]
}

// dispatch hands an agent-bound message to the agent's state machine;
// crashed and unknown agents eat their traffic silently.
func (p *Plane) dispatch(m Message) {
	a, live := p.agents[m.To]
	if !live || p.crashed[m.To] {
		return
	}
	p.deliver(a, m)
}

// deliver runs one agent's state machine step. A request first raises the
// agent's watermark to the one it carries; a request below the watermark is
// a straggler the coordinator no longer waits on, answered and never applied
// — a PREPARE is refused and places no hold, a BATCH is acknowledged and not
// logged. Every other state change is write-ahead logged before it applies;
// duplicates are answered from dedup memory; PREPAREs for finalized attempts
// are fenced so stragglers cannot resurrect holds. Once the step is applied,
// a log past its budget is checkpointed.
func (p *Plane) deliver(a *agent, m Message) {
	p.flight.Recordf("ctrlplane", "deliver", int64(p.d.Now()), "%s at broker %d session %d.%d msg %d",
		m.Type, a.id, m.SessionID, m.Epoch, m.MsgID)
	if m.Type == MsgPrepare || m.Type == MsgBatch {
		a.w = max(a.w, m.Watermark)
		if m.MsgID < a.w {
			p.stats.DupsDropped++
			if m.Type == MsgPrepare {
				p.d.Reply(m, MsgPrepareNack)
			} else {
				p.d.Reply(m, MsgBatchAck)
			}
			return
		}
	}
	if _, dup := a.seen[m.MsgID]; dup {
		p.stats.DupsDropped++
		if ack, ok := ackFor(m.Type); ok {
			p.d.Reply(m, ack)
		}
		return
	}
	key := sessKey{m.SessionID, m.Epoch}
	switch m.Type {
	case MsgPrepare:
		if f, finalized := a.done[key]; finalized {
			// Stale PREPARE for a finalized attempt: never re-hold.
			if f.op == walCommit {
				p.d.Reply(m, MsgPrepareAck)
			} else {
				p.d.Reply(m, MsgPrepareNack)
			}
			return
		}
		if l := p.link(m.Hop[0], m.Hop[1]); l >= 0 && p.owner[l] == a.id && p.avail[l] >= m.Bandwidth {
			exp := 0
			if m.Lease > 0 {
				exp = p.d.Now() + int(m.Lease)
			}
			p.logRecord(a.id, walRecord{Op: walHold, MsgID: m.MsgID, Session: key, Link: l, BW: m.Bandwidth, Expires: exp})
			a.seen[m.MsgID] = struct{}{}
			p.avail[l] -= m.Bandwidth // place hold
			a.holds[key] = append(a.holds[key], hold{link: l, bw: m.Bandwidth, expires: exp, id: m.MsgID})
			p.d.Reply(m, MsgPrepareAck)
		} else {
			// Nacks are not dedup-remembered: a retransmit re-evaluates
			// against current capacity (and is fenced once finalized).
			p.d.Reply(m, MsgPrepareNack)
		}
	case MsgBatch:
		// One WAL record carries the broker's whole slice of the round;
		// each entry then applies with per-session fencing, so
		// crash-atomicity is per session, not per batch — replay resolves
		// every entry independently.
		p.logRecord(a.id, walRecord{Op: walBatch, MsgID: m.MsgID, Batch: append([]BatchEntry(nil), m.Batch...)})
		a.seen[m.MsgID] = struct{}{}
		p.applyBatch(a, m.Batch, m.MsgID)
		if p.batchWALCrash != nil && p.batchWALCrash(a.id) {
			// Chaos seam: the broker dies in the durability window — batch
			// record logged, nothing acked, and the agent's apply of it
			// (holds, fencing, dedup) lost with its memory. The columns
			// hold what its log replays to, as they do for every crashed
			// agent, so a row that moves before it recovers carries the
			// record's credit. Recovery replays the record; the unacked
			// coordinator retransmission dedups against the WAL-rebuilt seen
			// set.
			p.Crash(a.id)
			return
		}
		p.d.Reply(m, MsgBatchAck)
	}
	p.compact(a.id)
}

// applyBatch applies decision record id (0: written locally) to live agent
// a's protocol state and the ledger columns.
func (p *Plane) applyBatch(a *agent, entries []BatchEntry, id uint64) {
	applyBatchEntries(p.top.Graph, a.holds, a.done, entries, id, func(l int32, bw float64) { p.credit(a.id, l, bw) })
}
