package ctrlplane

import (
	"fmt"
	"maps"
	"slices"

	"brokerset/internal/graph"
)

// The capacity ledger is two columns over the topology's links, a link's row
// being its dense link id (linkOf, graph.LinkOf): Plane.owner, the
// broker agent accounting the link (-1: neither endpoint is a broker, the link
// is unmanaged), and Plane.avail, the residual capacity the coalition accounts
// for it. The owner column is the membership's: SetBrokers writes it, and it
// always agrees with ownerOf. The avail column is the logs': a managed row
// holds the fold of its owner's log, whether the owner is up or crashed,
// because every change to a row is a record its owner logs and then applies
// (Plane.record, apply). An agent is a view over the rows it owns — it keeps
// only its holds, dedup memory and fencing — so a membership change rewrites
// the owner of the rows whose endpoints joined or left and nothing else, and
// capacity belongs to the link, not to whichever agent held or released it.
// A crashed agent's rows read as lost (Available is 0) until Recover.

// state is an agent's protocol state — per-attempt holds, dedup memory, the
// fencing record of finalized attempts, and the watermark that bounds the
// last two — the same struct whether a live agent keeps it or a fold of its
// log rebuilds it.
type state struct {
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

// agent is one broker's volatile state and its live view of the ledger
// columns. The state is lost on Crash; the WAL is the durable side.
type agent struct {
	id int32
	state
	rows columns
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

// view is the ledger rows apply writes a record's capacity through: the
// plane's columns, or a replay's map.
type view interface {
	// put sets row l, which the agent holds in its image or gained, to avail.
	put(l int32, avail float64)
	// drop forgets row l, which the agent lost.
	drop(l int32)
	// credit adds bw (negative for a hold) to row l.
	credit(l int32, bw float64)
}

// columns is the plane's columns seen as agent id's rows. It writes only the
// rows the owner column gives id, so a fold lands on the rows the agent owns
// now, whatever it owned when each record was written.
//
// The one difference between living and replaying is credit's: a live agent
// that credits a row it no longer owns — a hold placed, or a release decided,
// before the row moved — forwards the credit to the row's owner, whose log
// records it as a walCredit, so that its fold sees it too. A row that became
// unmanaged takes nothing: it seeds from the metrics residual, which carries
// every decided release and no hold, when a broker endpoint joins again. A
// fold of the log (live false: Recover, and depart's rebuild of a crashed
// member) skips such a credit, which the live apply forwarded once already.
type columns struct {
	p    *Plane
	id   int32
	live bool
}

func (c *columns) put(l int32, avail float64) {
	if c.p.owner[l] == c.id {
		c.p.avail[l] = avail
	}
}

// drop does nothing: SetBrokers moved the row in the owner column.
func (c *columns) drop(int32) {}

func (c *columns) credit(l int32, bw float64) {
	switch o := c.p.owner[l]; {
	case o == c.id:
		c.p.avail[l] += bw
	case c.live && o >= 0:
		c.p.record(c.p.agents[o], walRecord{Op: walCredit, Link: l, BW: bw})
		c.p.compact(o)
	}
}

// apply folds record r into agent state st and rows v. It is the one place a
// record takes effect: a live agent applies each record right after logging
// it (Plane.record), and a replay folds the same records from the latest
// checkpoint on (wal.replay). It never touches the shared metrics, which are
// coordinator-owned.
func apply(g *graph.Graph, st *state, v view, r walRecord) {
	if r.MsgID != 0 {
		st.seen[r.MsgID] = struct{}{}
	}
	switch r.Op {
	case walCheckpoint:
		img := r.Image
		for _, row := range img.Rows {
			v.put(row.Link, row.Avail)
		}
		// A checkpoint's hold slices are clipped, so appending to one copies
		// it rather than writing into the image.
		st.holds = refill(st.holds, img.Holds)
		st.done = refill(st.done, img.Done)
		st.seen = refill(st.seen, nil)
		for _, id := range img.Seen {
			st.seen[id] = struct{}{}
		}
		st.w = img.W
	case walMigrate:
		for _, l := range r.Ledger.Lost {
			v.drop(l)
		}
		for _, row := range r.Ledger.Gained {
			v.put(row.Link, row.Avail)
		}
	case walHold:
		v.credit(r.Link, -r.BW)
		st.holds[r.Session] = append(st.holds[r.Session], hold{link: r.Link, bw: r.BW, expires: r.Expires, id: r.MsgID})
	case walCredit:
		v.credit(r.Link, r.BW)
	case walBatch:
		applyBatchEntries(g, st.holds, st.done, r.Batch, r.MsgID, v.credit)
	}
}

// refill empties m, making it when nil, and copies src into it.
func refill[K comparable, V any](m, src map[K]V) map[K]V {
	if m == nil {
		m = make(map[K]V, len(src))
	}
	clear(m)
	maps.Copy(m, src)
	return m
}

// linkOf returns link (u,v)'s ledger row in g: its dense link id, in
// [0, NumEdges); -1 for a non-edge or a node outside g.
func linkOf(g *graph.Graph, u, v int32) int32 {
	if min(u, v) < 0 || int(max(u, v)) >= g.NumNodes() {
		return -1
	}
	return int32(g.LinkOf(int(u), int(v)))
}

// link returns link (u,v)'s ledger row (-1: not a link).
func (p *Plane) link(u, v int32) int32 { return linkOf(p.top.Graph, u, v) }

// record makes one change to agent a: r is appended to a's durable log, then
// applied to a's state and, through a's live view, to the columns. Every
// record reaches a log here, and every agent mutation is one.
func (p *Plane) record(a *agent, r walRecord) {
	p.wals[a.id].append(r)
	if p.walAppended != nil {
		p.walAppended(a.id, r)
	}
	apply(p.top.Graph, &a.state, &a.rows, r)
}

// start makes broker b a member whose state is img: its agent, and a fresh
// log that starts with img as its checkpoint.
func (p *Plane) start(b int32, img *image) {
	a := &agent{id: b, rows: columns{p: p, id: b, live: true}}
	p.agents[b] = a
	p.wals[b] = &wal{}
	p.logCheckpoint(a, img)
}

// logCheckpoint checkpoints agent a's log with img: the checkpoint is
// recorded, then everything before it dropped.
func (p *Plane) logCheckpoint(a *agent, img *image) {
	p.record(a, walRecord{Op: walCheckpoint, Image: img})
	p.wals[a.id].truncate()
	p.checkpoints++
}

// restore rebuilds agent a from its log — the latest checkpoint and the
// records after it — folded into a's state and into the columns of the rows
// it owns.
func (p *Plane) restore(a *agent) {
	p.wals[a.id].replay(p.top.Graph, &a.state, &columns{p: p, id: a.id})
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
// higher-id neighbor is numbered off b's own arc, so only the lower-id ones
// are looked up.
func (p *Plane) rowsOf(b int32) []ledgerRow {
	g := p.top.Graph
	out := make([]ledgerRow, 0, g.Degree(int(b)))
	off := g.ArcOffset(int(b))
	for i, v := range g.Neighbors(int(b)) {
		l := int32(g.LinkOfArc(int(b), off+i))
		if v < b {
			l = p.link(b, v)
		}
		if p.owner[l] == b {
			out = append(out, ledgerRow{l, p.avail[l]})
		}
	}
	return out
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

// checkpoint records a checkpoint of live agent a, dropping every record
// before it; applying it forgets what a's watermark has passed: the fencing
// and dedup memory below it. The image keeps the commit counts of the
// attempts still fenced. Only clipped hold slices go into the image, so
// neither the agent nor a replay ever appends into one.
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
	p.logCheckpoint(a, img)
}

// SetBrokers replaces the coalition membership, migrating the ledger rows
// whose owner changes — only links with an endpoint that joined or left can
// change owner (ownerOf picks the lower-id broker endpoint), so only the rows
// of added and removed brokers are walked. SetBrokers writes the owner column
// of those rows and seeds the ones that gain their first broker endpoint from
// the metrics residual, which is exact there: nobody can hold on an unmanaged
// row or be owed its release. A row that changes owner keeps its residual,
// whether its old owner is up or crashed; holds on it stay with the agent
// that placed them. A row that loses every broker endpoint drops out of the
// ledger. A crashed member is a member like any other: surviving members keep
// their holds, dedup memory, fencing and backlog, and each one whose rows
// changed records one migration (the links it lost, then the links it gained
// with their residuals); an added member starts a log with a checkpoint of
// its rows. A departing member settles what it was sent before its agent and
// its log go (depart). Crash marks and breaker state persist across
// membership changes (they key off the node id). Added and removed report the
// membership delta.
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
		p.record(p.agents[b], walRecord{Op: walMigrate, Ledger: d})
		p.compact(b)
	}
	for _, b := range added {
		p.start(b, &image{Rows: p.rowsOf(b), W: p.d.w})
	}
	for _, b := range removed {
		p.depart(b)
	}
	p.d.Cancel(func(m Message) bool { return p.agents[m.To] == nil })
	p.engine.SetBrokers(brokers)
	p.version++
	return added, removed
}

// depart settles departing member b's account and drops its agent and its
// log. A crashed member's state is first restored from its log. Every record
// backlogged toward b that b has not applied is recorded on its behalf — a
// release credits its hop, an abort credits b's holds of that attempt, a
// commit retires them — and every hold still undecided is presumed aborted
// (resolve) and credited. b owns no row any more, so every credit is
// forwarded to the row's new owner and logged there; a row that became
// unmanaged takes none. (A backlogged id is at or above the coordinator's
// watermark, which no agent's passes, so a checkpoint never dropped it from
// the seen memory these records are tested against.)
func (p *Plane) depart(b int32) {
	a := p.agents[b]
	if p.crashed[b] {
		p.restore(a)
	}
	for _, id := range p.d.sortedIDs(p.d.backlog) {
		if m := p.d.backlog[id]; m.To == b {
			if _, applied := a.seen[id]; !applied {
				p.record(a, walRecord{Op: walBatch, MsgID: id, Batch: m.Batch})
			}
		}
	}
	var entries []BatchEntry
	for _, key := range inDoubt(a.holds) {
		entries = append(entries, p.resolve(key))
	}
	p.applyLocal(a, entries)
	delete(p.agents, b)
	delete(p.wals, b)
}

// Available returns the ledgered available capacity of the link (0 when
// unmanaged, or when its owner is crashed: the row reads as lost until
// Recover).
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
// logged. Every other state change is a record, logged and then applied;
// duplicates are answered from dedup memory; PREPAREs for finalized attempts
// are fenced so stragglers cannot resurrect holds. Once the step is applied,
// a log past its budget is checkpointed.
func (p *Plane) deliver(a *agent, m Message) {
	p.flight.Record("ctrlplane", "deliver", int64(p.d.Now()), "%s at broker %d session %d.%d msg %d",
		m.Type.String(), int64(a.id), int64(m.SessionID), int64(m.Epoch), int64(m.MsgID))
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
			p.record(a, walRecord{Op: walHold, MsgID: m.MsgID, Session: key, Link: l, BW: m.Bandwidth, Expires: exp})
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
		p.record(a, walRecord{Op: walBatch, MsgID: m.MsgID, Batch: append([]BatchEntry(nil), m.Batch...)})
		if p.batchWALCrash != nil && p.batchWALCrash(a.id) {
			// Chaos seam: the broker dies in the durability window — record
			// logged, nothing acked, and its state (holds, fencing, dedup) lost
			// with its memory. Recovery folds the record back in; the unacked
			// coordinator retransmission dedups against the rebuilt seen set.
			p.Crash(a.id)
			return
		}
		p.d.Reply(m, MsgBatchAck)
	}
	p.compact(a.id)
}
