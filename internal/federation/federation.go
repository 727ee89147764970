// Package federation turns the single-process broker plane into a
// multi-region one, the model of "Stitching Inter-Domain Paths over IXPs":
// the topology is partitioned into regions anchored at high-degree IXPs,
// each region runs its own broker coalition (epoch-snapshot publisher,
// query plane, 2PC control plane) over its subtopology, and regions share
// only their border IXPs. Cross-region paths are answered by stitching
// per-region B-dominated segments at those shared border brokers, and
// cross-region sessions are set up with a two-level commit, presumed abort
// end to end, that is the intra-region protocol one level up — same
// delivery engine (ctrlplane.Delivery), same decision record:
//
//	step      home region -> each transit region      sub-WAL state there
//	prepare   X-PREPARE (entry, exit border, bw)      (none) -> prepared
//	decide    BATCH [commit | abort]                  prepared -> committed | aborted
//	release   BATCH [release]                         committed -> released
//
// A transit region holds the path its own query plane resolves between the
// named borders — the quote it gave the stitch, for as long as that still has
// the bandwidth — so a session is searched for once, by the read that
// stitched it. It acks a record once every entry is applied and refuses
// (BATCH-NACK) only a commit it can no longer honour: its lease lapsed and
// its sweep presumed abort, or it never heard of the attempt. A refusal —
// on the spot or of a backlogged record — rolls the whole session back.
//
// A region's share of a stitched session exists once: the region-local
// *ctrlplane.Session its plane's PrepareOnPath handed out, kept in
// Region.subs by the region that holds the segment — the home region's own
// segment included. Its identity and route never change, so it is the
// durable record as well as the handle, and nothing is rebuilt from it.
// Fabric.records builds every decision, one entry per region holding a
// segment (the home region's is applied on the spot, the others ride the
// bus), and Region.applyDecision executes every entry on that session;
// nothing else moves a sub-transaction after prepare, so the path a
// crashed-and-recovered region takes is the path every region always takes.
// The engine's three hooks are Dispatch =
// Fabric.dispatch (sub-coordinator and gossip store), Down = none (a home
// coordinator has no failure detector for its peers; the circuit breaker is
// what it has) and Refused = Fabric.commitRefused (the rollback above).
//
// The Fabric is the in-process federation harness: it owns the regions and
// the peer message bus. As home coordinator it keeps two things: the table
// of standing sessions — immutable records, replaced whole by a heal and
// taken out by a teardown, a rollback or a heal that aborts — and the
// delivery engine, whose backlog is the durable half of every decision not
// yet acknowledged. Everything else per region — records, gossip view, crash
// mark — is a field of its Region.
//
// The fabric keeps its own schedule. Beat is one step of it: fabric time and
// every live region plane tick (leases lapse, the backlog is re-driven),
// every 5th beat the regions gossip border liveness, and every 20th the
// healer re-stitches what broke since its last pass. A driver only chooses
// how often to beat (brokerd: every 100 ms, so a heal every 2 s).
//
// A Fabric is safe for concurrent use and owns its serialization: one
// RWMutex, taken by every exported method and by nothing else. StitchPath,
// Stats and the session and gossip reads share the read side — the region
// query planes they reach are internally synchronized and everything else
// they touch is read-only; Setup, Teardown, Beat, Heal, CrashRegion,
// RecoverRegion, Reconcile and CheckInvariants, which mutate ledgers, WALs,
// snapshots and the delivery engine, take the write side. Exported methods
// lock and call unexported bodies; the bodies call each other, never an
// exported method. What Region(r) hands out is the region's own stack (its
// ctrlplane.Plane is not safe for concurrent use): tests that reach into it
// do so while nothing else drives the fabric.
package federation

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Config parameterizes a Fabric.
type Config struct {
	// Regions is the region count (anchored at the Regions highest-degree
	// IXPs). Required, >= 1.
	Regions int
	// BrokerBudget bounds each region's broker set (MaxSG greedy budget);
	// 0 runs MaxSG to completion. Border IXPs are always forced into the
	// sets of every region they touch — they are the stitch points.
	BrokerBudget int
	// CrossingCostMs is the latency charged for handing a path over at a
	// border IXP (switch-fabric crossing between the two regions' ports).
	// Default 2 ms.
	CrossingCostMs float64
	// Seed fixes the fabric's deterministic randomness.
	Seed int64
	// Metrics, when non-nil, is the global per-link metric assignment every
	// region mirrors onto its subtopology; nil synthesizes
	// routing.DefaultMetrics jittered from Seed. Calibrated tests inject
	// handcrafted latencies here.
	Metrics *routing.Metrics
	// Retry tunes every region plane's 2PC delivery machinery and the
	// fabric's own cross-region RPC retries. Set Retry.LeaseTTL so
	// sub-transactions abandoned by a crashed home region self-clean.
	Retry ctrlplane.RetryConfig
	// PeerFaults, when non-nil, subjects the inter-region bus to seeded
	// loss/duplication/delay/reorder/partitions; nil uses a lossless FIFO.
	PeerFaults *ctrlplane.FaultConfig
}

// Stats counts federation activity.
type Stats struct {
	Setups    int `json:"setups"`
	Commits   int `json:"commits"`
	Aborts    int `json:"aborts"`
	Teardowns int `json:"teardowns"`
	// PeerMessages counts messages placed on the inter-region bus;
	// PeerRetries counts re-sends (including backlog re-drives).
	PeerMessages int `json:"peer_messages"`
	PeerRetries  int `json:"peer_retries"`
	// CommitNacks counts regions refusing a late commit (lease expired);
	// each one rolls the whole stitched session back.
	CommitNacks int `json:"commit_nacks"`
	// Rollbacks counts committed stitched sessions conserved-aborted after
	// a commit refusal.
	Rollbacks int `json:"rollbacks"`
	// Breaker activity per peer region.
	BreakerTrips     int `json:"breaker_trips"`
	BreakerFastFails int `json:"breaker_fast_fails"`
	// Gossip volume.
	GossipSent    int `json:"gossip_sent"`
	GossipApplied int `json:"gossip_applied"`
	// Healer activity.
	Restitched  int `json:"restitched"`
	HealAborted int `json:"heal_aborted"`
	// Region failure injections.
	RegionCrashes    int `json:"region_crashes"`
	RegionRecoveries int `json:"region_recoveries"`
	// Backlogged is the current count of cross-region decision records
	// awaiting delivery.
	Backlogged int `json:"backlogged"`
	// Beats counts steps of the fabric's schedule (Beat).
	Beats int `json:"beats"`
}

// Fabric is the in-process multi-region broker plane.
type Fabric struct {
	// mu orders every touch of the fabric; see the package comment.
	mu sync.RWMutex

	cfg     Config
	top     *topology.Topology
	part    *topology.RegionPartition
	regions []*Region
	// ranked[r*N+q] is the border IXPs regions r and q share, highest degree
	// first (ties: lower id) — the order borderCandidates tries them in.
	ranked [][]int32

	// d delivers X-PREPAREs and decision records over the inter-region bus:
	// retries, the backlog of records not yet acknowledged (durable, like
	// every Region.subs) and the per-peer-region circuit breakers live there,
	// and so does fabric time (d.Now). Home coordinators have no failure
	// detector for their peers, so it is built without a Down hook: a crashed
	// region's traffic is sent, dropped by the regionBus, and counted against
	// its breaker.
	d      *ctrlplane.Delivery
	peerFT *ctrlplane.FaultTransport

	// sessions is the table of standing sessions, one immutable record each.
	sessions map[int]*Session
	stats    Stats
	nextID   int
	flight   *obs.FlightRecorder
	tracer   *obs.Tracer
}

// New partitions the topology into cfg.Regions regions and boots one
// broker coalition per region.
func New(top *topology.Topology, cfg Config) (*Fabric, error) {
	if cfg.Regions < 1 {
		return nil, fmt.Errorf("federation: Regions must be >= 1, got %d", cfg.Regions)
	}
	if cfg.CrossingCostMs <= 0 {
		cfg.CrossingCostMs = 2.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	part, err := topology.PartitionRegions(top, cfg.Regions)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:      cfg,
		top:      top,
		part:     part,
		sessions: make(map[int]*Session),
	}
	var faults ctrlplane.FaultConfig // zero: the lossless FIFO
	if cfg.PeerFaults != nil {
		faults = *cfg.PeerFaults
	}
	f.peerFT = ctrlplane.NewFaultTransport(faults)
	f.d = ctrlplane.NewDelivery("federation", regionBus{f.peerFT, f}, cfg.Retry)
	f.d.Dispatch = f.dispatch
	f.d.Refused = f.commitRefused
	global := cfg.Metrics
	if global == nil {
		global = routing.DefaultMetrics(top, rand.New(rand.NewSource(cfg.Seed)))
	}
	for r := 0; r < cfg.Regions; r++ {
		reg, err := buildRegion(top, part, r, global, cfg)
		if err != nil {
			return nil, fmt.Errorf("federation: region %d: %w", r, err)
		}
		f.regions = append(f.regions, reg)
	}
	f.ranked = make([][]int32, cfg.Regions*cfg.Regions)
	for r := 0; r < cfg.Regions; r++ {
		for q := 0; q < cfg.Regions; q++ {
			shared := append([]int32(nil), part.BorderBetween(r, q)...)
			sort.Slice(shared, func(i, j int) bool {
				di, dj := top.Graph.Degree(int(shared[i])), top.Graph.Degree(int(shared[j]))
				if di != dj {
					return di > dj
				}
				return shared[i] < shared[j]
			})
			f.ranked[r*cfg.Regions+q] = shared
		}
	}
	return f, nil
}

// regionBus is the inter-region bus as the regions see it: whatever is
// addressed to a crashed region — request, reply or gossip — is dropped on
// the floor when its turn to be delivered comes.
type regionBus struct {
	ctrlplane.Transport
	f *Fabric
}

func (b regionBus) Recv() (ctrlplane.Message, bool) {
	for {
		m, ok := b.Transport.Recv()
		if !ok {
			return m, false
		}
		q, peer := ctrlplane.PeerRegion(m.To)
		switch {
		case !peer || q >= len(b.f.regions):
		case b.f.regions[q].crashed:
			b.f.flight.Record("federation", "drop", int64(b.f.d.Now()), "%s to crashed region %d session %d.%d",
				m.Type.String(), int64(q), int64(m.SessionID), int64(m.Epoch))
		default:
			return m, true
		}
	}
}

// NumRegions returns the region count.
func (f *Fabric) NumRegions() int { return len(f.regions) }

// Region returns region r's coalition.
func (f *Fabric) Region(r int) *Region { return f.regions[r] }

// Partition returns the underlying region partition.
func (f *Fabric) Partition() *topology.RegionPartition { return f.part }

// Session returns the current record of the standing session with this id:
// one Setup established and neither Teardown released, a rollback undid, nor
// Heal had to abort. Nil otherwise. The record is the table's own, shared with
// every other reader: it must not be mutated. A later heal replaces it in the
// table with a new record and leaves this one as it was.
func (f *Fabric) Session(id int) *Session {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sessions[id]
}

// Sessions returns the current record of every standing session, ordered by
// id. The records are shared, like Session's: read them, never write them.
func (f *Fabric) Sessions() []*Session {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.standing()
}

// standing lists the fabric's own session records, ordered by id.
func (f *Fabric) standing() []*Session {
	out := make([]*Session, 0, len(f.sessions))
	for _, s := range f.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns a copy of the federation counters.
func (f *Fabric) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.statsLocked()
}

func (f *Fabric) statsLocked() Stats {
	st := f.stats
	st.PeerMessages, st.PeerRetries, st.BreakerTrips = f.d.Sent, f.d.Retries, f.d.BreakerTrips
	st.Backlogged = f.d.Backlogged()
	return st
}

// RegionCrashed reports whether region r's sub-coordinator is down.
func (f *Fabric) RegionCrashed(r int) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.regions[r].crashed
}

// CrashRegion fails region r's whole stack: the sub-coordinator's volatile
// state — its gossip view — is lost, and while crashed the region neither
// receives peer messages nor ticks its plane clock. The durable side — the
// sub-transaction records and the region plane's agent WALs — survives for
// RecoverRegion.
func (f *Fabric) CrashRegion(r int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashRegion(r)
}

// crashRegion is CrashRegion's body, which a chaos test's delivery hook calls
// directly: a region that dies mid-protocol dies inside the operation that
// holds the lock.
func (f *Fabric) crashRegion(r int) {
	reg := f.regions[r]
	if reg.crashed {
		return
	}
	f.flight.Record("federation", "region_crash", int64(f.d.Now()), "region %d", "", int64(r))
	reg.crashed = true
	reg.peers = make(map[int]*regionDigest)
	f.stats.RegionCrashes++
}

// RecoverRegion restarts a crashed region. Nothing is rebuilt: the region's
// sub-transactions are its durable records, and the decisions the home
// regions re-drive are applied to them like any other (see
// Region.applyDecision) — the presumed-abort recovery shape of the
// intra-region protocol.
func (f *Fabric) RecoverRegion(r int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	reg := f.regions[r]
	if !reg.crashed {
		return
	}
	reg.crashed = false
	f.stats.RegionRecoveries++
	f.flight.Record("federation", "region_recover", int64(f.d.Now()), "region %d: %d sub-txn records", "", int64(r), int64(len(reg.subs)))
}

// tick advances fabric time: live region planes tick (sweeping lapsed
// leases), and the peer backlog is re-driven. A crashed region's clock
// stays frozen — its leases age only while the region is actually up. Every
// operation ticks once on entry; Beat ticks without one.
func (f *Fabric) tick() {
	f.d.Tick()
	for _, reg := range f.regions {
		if !reg.crashed {
			reg.Plane.Tick()
		}
	}
	f.d.Flush()
}

// Beat is one step of the fabric's own schedule (see the package comment):
// a tick, a gossip round every 5th beat, a heal pass every 20th.
func (f *Fabric) Beat(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Beats++
	f.tick()
	if f.stats.Beats%5 == 0 {
		f.gossip()
	}
	if f.stats.Beats%20 == 0 {
		f.heal(ctx)
	}
}

// Reconcile drives the peer backlog (and every region plane's backlog) to
// empty, the quiescent state CheckInvariants expects. All regions must be
// recovered first.
func (f *Fabric) Reconcile(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for r, reg := range f.regions {
		if reg.crashed {
			return fmt.Errorf("federation: reconcile requires every region up: region %d crashed", r)
		}
	}
	if err := f.d.Reconcile(ctx); err != nil {
		return err
	}
	for r, reg := range f.regions {
		if err := reg.Plane.Reconcile(ctx); err != nil {
			return fmt.Errorf("federation: region %d: %w", r, err)
		}
		reg.maybePublish(ctx)
	}
	return nil
}

// CheckInvariants verifies every region's conservation laws at quiescence:
// each region's committed sub-transaction records are handed to the region
// plane's own checker, so a
// stitched session must be exactly accounted in every region it crosses —
// fully committed everywhere or conserved-aborted everywhere.
func (f *Fabric) CheckInvariants() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for r, reg := range f.regions {
		if reg.crashed {
			return fmt.Errorf("federation: invariant check requires every region up: region %d crashed", r)
		}
	}
	if n := f.d.Backlogged(); n > 0 {
		return fmt.Errorf("federation: invariant check requires quiescence: %d peer backlog message(s) (run Reconcile)", n)
	}
	for r, reg := range f.regions {
		var committed []*ctrlplane.Session
		for _, fk := range sortedFedKeys(reg.subs) {
			if s := reg.subs[fk]; s.State == ctrlplane.StateCommitted {
				committed = append(committed, s)
			}
		}
		if err := reg.Plane.CheckInvariants(committed); err != nil {
			return fmt.Errorf("federation: region %d: %w", r, err)
		}
	}
	return nil
}

func sortedFedKeys(m map[fedKey]*ctrlplane.Session) []fedKey {
	keys := make([]fedKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ID != keys[j].ID {
			return keys[i].ID < keys[j].ID
		}
		return keys[i].Epoch < keys[j].Epoch
	})
	return keys
}
