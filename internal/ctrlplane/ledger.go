package ctrlplane

import (
	"fmt"
	"slices"
	"sort"

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
// memory, and the fencing record of finalized attempts. All of it is lost on
// Crash; the WAL is the durable side.
type agent struct {
	id    int32
	holds map[sessKey][]hold
	seen  map[uint64]struct{}
	done  map[sessKey]walOp
}

// newAgent returns broker b's agent with empty protocol state.
func newAgent(b int32) *agent {
	return &agent{
		id:    b,
		holds: make(map[sessKey][]hold),
		seen:  make(map[uint64]struct{}),
		done:  make(map[sessKey]walOp),
	}
}

type hold struct {
	link int32
	bw   float64
	// expires is the virtual clock tick after which the hold's lease has
	// lapsed (0 = no lease).
	expires int
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
// link order: the rows of its incident links it owns.
func (p *Plane) rowsOf(b int32) []ledgerRow {
	out := make([]ledgerRow, 0, p.top.Graph.Degree(int(b)))
	for _, v := range p.top.Graph.Neighbors(int(b)) {
		if l := p.link(b, v); p.owner[l] == b {
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
		p.walOf(o).append(walRecord{Op: walCredit, Link: l, BW: bw})
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
// added member logs a snapshot of its rows. A departing member settles what
// it was sent before its agent goes (depart). Crash marks and breaker state
// persist across membership changes (they key off the node id). Added and
// removed report the membership delta.
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
		p.walOf(b).append(walRecord{Op: walMigrate, Ledger: d})
	}
	for _, b := range added {
		p.agents[b] = newAgent(b)
		p.walOf(b).append(walRecord{Op: walSnapshot, Ledger: &ledgerDelta{Gained: p.rowsOf(b)}})
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
// drops its agent. Every record backlogged toward b that b has not applied is
// applied on its behalf — a release credits its hop, an abort credits b's
// holds of that attempt, a commit retires them — and every hold still
// undecided is presumed aborted (resolve) and credited. A crashed member's
// holds, fencing and applied message ids come from its log. Credits go
// through credit, so they land wherever the rows went and are logged there;
// a row that became unmanaged takes none.
func (p *Plane) depart(b int32) {
	a := p.agents[b]
	holds, done, seen := a.holds, a.done, a.seen
	if p.crashed[b] {
		_, holds, done, seen = p.walOf(b).replay(p.top.Graph)
	}
	g := p.top.Graph
	credit := func(l int32, bw float64) { p.credit(b, l, bw) }
	for _, id := range sortedIDs(p.d.backlog) {
		if m := p.d.backlog[id]; m.To == b {
			if _, applied := seen[id]; !applied {
				applyBatchEntries(g, holds, done, m.Batch, credit)
			}
		}
	}
	var entries []BatchEntry
	for _, key := range inDoubt(holds) {
		entries = append(entries, p.resolve(key))
	}
	applyBatchEntries(g, holds, done, entries, credit)
	delete(p.agents, b)
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

// maxSeen bounds an agent's dedup memory; beyond it the oldest half is
// pruned (MsgIDs are monotonic, so pruning low ids retires the oldest
// messages — anything that old has long since stopped being retried).
const maxSeen = 16384

func (a *agent) markSeen(id uint64) {
	a.seen[id] = struct{}{}
	if len(a.seen) <= maxSeen {
		return
	}
	ids := make([]uint64, 0, len(a.seen))
	for s := range a.seen {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, s := range ids[:len(ids)/2] {
		delete(a.seen, s)
	}
}

// deliver runs one agent's state machine step. Every state change is
// write-ahead logged before it applies; duplicates are answered from dedup
// memory; messages for finalized attempts are fenced so stragglers cannot
// resurrect holds.
func (p *Plane) deliver(a *agent, m Message) {
	p.flight.Recordf("ctrlplane", "deliver", int64(p.d.Now()), "%s at broker %d session %d.%d msg %d",
		m.Type, a.id, m.SessionID, m.Epoch, m.MsgID)
	if _, dup := a.seen[m.MsgID]; dup {
		p.stats.DupsDropped++
		if ack, ok := ackFor(m.Type); ok {
			p.d.Reply(m, ack)
		}
		return
	}
	key := sessKey{m.SessionID, m.Epoch}
	w := p.walOf(a.id)
	switch m.Type {
	case MsgPrepare:
		if op, finalized := a.done[key]; finalized {
			// Stale PREPARE for a finalized attempt: never re-hold.
			if op == walCommit {
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
			w.append(walRecord{Op: walHold, MsgID: m.MsgID, Session: key, Link: l, BW: m.Bandwidth, Expires: exp})
			a.markSeen(m.MsgID)
			p.avail[l] -= m.Bandwidth // place hold
			a.holds[key] = append(a.holds[key], hold{link: l, bw: m.Bandwidth, expires: exp})
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
		w.append(walRecord{Op: walBatch, MsgID: m.MsgID, Batch: append([]BatchEntry(nil), m.Batch...)})
		a.markSeen(m.MsgID)
		p.applyBatch(a, m.Batch)
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
}

// applyBatch applies a decision record to live agent a's protocol state and
// the ledger columns.
func (p *Plane) applyBatch(a *agent, entries []BatchEntry) {
	applyBatchEntries(p.top.Graph, a.holds, a.done, entries, func(l int32, bw float64) { p.credit(a.id, l, bw) })
}
