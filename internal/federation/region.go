package federation

import (
	"context"
	"fmt"
	"sort"

	"brokerset/internal/broker"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/epoch"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Region is one federated broker coalition: a region subtopology (home
// members plus the border IXPs it shares with neighbors), its own broker
// set, metric assignment, 2PC control plane, epoch-snapshot publisher, and
// query plane. Node ids inside a Region are region-local; Orig maps them
// back to the global topology. The region also owns its sub-coordinator's
// state: the durable sub-transaction records, the gossip view, the crash mark.
type Region struct {
	ID   int
	Top  *topology.Topology
	Orig []int32 // local -> global node id

	Metrics *routing.Metrics
	Plane   *ctrlplane.Plane
	Pub     *epoch.Publisher
	QP      *queryplane.QueryPlane

	// Brokers is the region's coalition in local ids (ascending); it always
	// includes every border IXP the region touches, so stitch points are
	// broker-owned on both sides.
	Brokers []int32
	// borderLocal are the region's border IXPs in local ids (ascending).
	borderLocal []int32

	g2l         map[int32]int32
	lastVersion uint64

	// subs is the sub-coordinator's durable record of every sub-transaction
	// the region holds a segment for, its own sessions' home segments
	// included: the region-local session PrepareOnPath handed out, whose
	// State is the sub-transaction's. It is the only representation of the
	// region's share of a stitched session and survives a crash. A released
	// or aborted record is dropped — a home segment's at once, a transit
	// segment's once the peer watermark passes the X-PREPARE that created it
	// — since applyDecision's "(none)" row answers as those states do.
	subs map[fedKey]*ctrlplane.Session
	// w is the highest peer watermark a request carried here, durable like
	// subs: an X-PREPARE below it is a straggler. xprep maps each transit
	// record to its X-PREPARE's MsgID; settled lists the released or aborted
	// transit records w has not yet passed, in the order they settled.
	w       uint64
	xprep   map[fedKey]uint64
	settled []fedKey
	// peers is the gossip-fed view of the other regions, by region id;
	// volatile — CrashRegion wipes it.
	peers map[int]*regionDigest
	// crashed marks the region's whole stack down (Fabric.CrashRegion).
	crashed bool
}

// fedKey identifies one establish attempt of a federated session (Heal
// re-stitches under a new epoch, fencing stragglers exactly like the
// intra-region protocol).
type fedKey struct {
	ID    int
	Epoch uint32
}

// buildRegion boots region r's full coalition stack from the global
// topology and metric assignment.
func buildRegion(top *topology.Topology, part *topology.RegionPartition, r int, global *routing.Metrics, cfg Config) (*Region, error) {
	sub, orig, arcOrig := part.Subtopology(r)
	g2l := make(map[int32]int32, len(orig))
	for l, g := range orig {
		g2l[g] = int32(l)
	}

	// The region's metrics mirror the global assignment arc for arc, so a
	// segment latency quoted by any region agrees with the global truth.
	metrics := routing.NewSubMetrics(sub, orig, arcOrig, global)

	var brokers []int32
	var err error
	if cfg.BrokerBudget > 0 {
		brokers, err = broker.MaxSG(sub.Graph, cfg.BrokerBudget)
	} else {
		brokers, err = broker.MaxSGComplete(sub.Graph)
	}
	if err != nil {
		return nil, fmt.Errorf("broker selection: %w", err)
	}

	// Force every border IXP this region touches into the coalition: a
	// stitched path hands over at a border broker, so both sides must own it.
	inB := make(map[int32]bool, len(brokers))
	for _, b := range brokers {
		inB[b] = true
	}
	var borderLocal []int32
	for _, g := range part.BorderIXPs() {
		l, ok := g2l[g]
		if !ok {
			continue
		}
		borderLocal = append(borderLocal, l)
		if !inB[l] {
			inB[l] = true
			brokers = append(brokers, l)
		}
	}
	sort.Slice(brokers, func(i, j int) bool { return brokers[i] < brokers[j] })
	sort.Slice(borderLocal, func(i, j int) bool { return borderLocal[i] < borderLocal[j] })

	plane := ctrlplane.New(sub, metrics, brokers)
	plane.SetRetryConfig(cfg.Retry)

	snap := epoch.NewSnapshot(epoch.SnapshotData{
		Top: sub, Live: sub.Graph, Brokers: brokers, View: metrics.View(),
	})
	pub := epoch.NewPublisher(snap)

	reg := &Region{
		ID: r, Top: sub, Orig: orig, g2l: g2l,
		Metrics: metrics, Plane: plane, Pub: pub, QP: queryplane.Over(pub),
		Brokers: brokers, borderLocal: borderLocal,
		lastVersion: plane.Version(),
		subs:        make(map[fedKey]*ctrlplane.Session),
		xprep:       make(map[fedKey]uint64),
		peers:       make(map[int]*regionDigest),
	}
	reg.maybePublish(context.Background())
	return reg, nil
}

// Local translates a global node id to this region's local id; ok is false
// when the node is outside the region subtopology.
func (reg *Region) Local(g int32) (int32, bool) {
	l, ok := reg.g2l[g]
	return l, ok
}

// Global translates a region-local node id to the global topology's id.
func (reg *Region) Global(l int32) int32 { return reg.Orig[l] }

// GlobalPath translates a region-local path to global ids.
func (reg *Region) GlobalPath(local []int32) []int32 {
	out := make([]int32, len(local))
	for i, l := range local {
		out[i] = reg.Orig[l]
	}
	return out
}

// BorderIXPs returns the region's border IXPs in local ids.
func (reg *Region) BorderIXPs() []int32 { return reg.borderLocal }

// maybePublish republishes the region snapshot when the control plane has
// mutated reservation state since the last publish, bumping the region
// epoch so query-plane caches revalidate.
func (reg *Region) maybePublish(ctx context.Context) {
	v := reg.Plane.Version()
	if v == reg.lastVersion {
		return
	}
	reg.lastVersion = v
	// Only reservations change after boot: the region graph and coalition
	// are fixed.
	reg.Pub.PublishView(ctx, reg.Metrics.View())
}

// hold prepares a region-local path for attempt fk and keeps the session
// the plane handed out as the sub-transaction's record. A refused prepare
// leaves no record: a retransmit re-evaluates, exactly like an agent nacking
// a PREPARE.
func (reg *Region) hold(ctx context.Context, fk fedKey, path []int32, bw float64) error {
	s, err := reg.Plane.PrepareOnPath(ctx, path, bw)
	if err != nil {
		return err
	}
	reg.subs[fk] = s
	return nil
}

// prepareSub is the sub-coordinator holding its segment of a stitched path;
// false nacks the X-PREPARE. One below the peer watermark is a straggler the
// home region no longer waits on, and may be for a record already dropped:
// it is refused and holds nothing.
func (reg *Region) prepareSub(ctx context.Context, m ctrlplane.Message) bool {
	fk := fedKey{ID: m.SessionID, Epoch: m.Epoch}
	if m.MsgID < reg.w {
		return false
	}
	if s := reg.subs[fk]; s != nil {
		// A retransmit: re-ack a live attempt, refuse one already dead.
		return s.State == ctrlplane.StatePrepared || s.State == ctrlplane.StateCommitted
	}
	entry, okE := reg.Local(m.Hop[0])
	exit, okX := reg.Local(m.Hop[1])
	if !okE || !okX {
		return false
	}
	// Resolve the segment through our own query plane: the home region only
	// named the border endpoints, the concrete hops are ours to choose. The
	// quote we gave its stitch is still cached, so unless our reservations
	// moved under it this is a lookup, not a search.
	p, _, err := reg.QP.Resolve(ctx, int(entry), int(exit), routing.Options{}.Reserving(m.Bandwidth))
	if err != nil || reg.hold(ctx, fk, p.Nodes, m.Bandwidth) != nil {
		return false
	}
	reg.xprep[fk] = m.MsgID
	return true
}

// advance raises the peer watermark to w and drops the settled transit
// records it now passes.
func (reg *Region) advance(w uint64) {
	if w <= reg.w {
		return
	}
	reg.w = w
	n := 0
	for ; n < len(reg.settled) && reg.xprep[reg.settled[n]] < w; n++ {
		reg.drop(reg.settled[n])
	}
	reg.settled = reg.settled[n:]
}

// settle retires record fk, now released or aborted: a home segment's and a
// transit segment whose X-PREPARE the peer watermark has passed go now, the
// rest wait in settled.
func (reg *Region) settle(fk fedKey) {
	if id, transit := reg.xprep[fk]; transit && id >= reg.w {
		reg.settled = append(reg.settled, fk)
		return
	}
	reg.drop(fk)
}

func (reg *Region) drop(fk fedKey) {
	delete(reg.subs, fk)
	delete(reg.xprep, fk)
}

// applyDecision executes one decision-record entry against the region's
// durable sub-transaction record. It is the only place a record's State
// moves after prepare, whether the record arrived over the peer bus or the
// home coordinator applies its own decision to its own segment; the plane
// call in each row is what moves it:
//
//	record state   commit                     abort / release
//	(none)         refused                    no-op (presumed abort: nothing held)
//	prepared       CommitPrepared: committed, AbortPrepared: aborted
//	               or refused -> aborted
//	committed      no-op                      Teardown: released
//	aborted        refused                    no-op
//	released       refused                    no-op
//
// Only a commit can be refused (the returned error): the region's lease
// lapsed and its sweep already presumed abort, or it never heard of the
// attempt. An abort reaching a committed record releases it fully — the
// commit landed but its ack was lost, and the home rolled back presuming it
// hadn't. A record the decision releases or aborts settles (settle).
func (reg *Region) applyDecision(ctx context.Context, e ctrlplane.BatchEntry) error {
	fk := fedKey{ID: e.ID, Epoch: e.Epoch}
	s := reg.subs[fk]
	commit := e.Kind == ctrlplane.EntryCommit
	if s == nil || s.State == ctrlplane.StateAborted || s.State == ctrlplane.StateReleased {
		if commit {
			return fmt.Errorf("federation: region %d holds nothing for session %d.%d", reg.ID, e.ID, e.Epoch)
		}
		return nil
	}
	var err error
	switch {
	case s.State == ctrlplane.StateCommitted && commit:
		return nil
	case s.State == ctrlplane.StateCommitted:
		_ = reg.Plane.Teardown(ctx, s) // refuses only a non-committed session
	case commit:
		err = reg.Plane.CommitPrepared(ctx, s) // refused: our lease expired and the sweep presumed abort
	default:
		_ = reg.Plane.AbortPrepared(ctx, s) // a hold the sweep already took is a no-op
	}
	if s.State != ctrlplane.StateCommitted {
		reg.settle(fk)
	}
	if err != nil {
		return err
	}
	reg.maybePublish(ctx)
	return nil
}

// segmentDamaged reports whether the region's own plane finds the segment it
// committed for attempt fk damaged (link failure, agent crashed, breaker
// open). A region holding no committed record for fk has nothing to damage.
func (reg *Region) segmentDamaged(fk fedKey) bool {
	return reg.Plane.SessionDamaged(reg.subs[fk])
}
