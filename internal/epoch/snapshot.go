// Package epoch implements the repo's read-side concurrency protocol:
// immutable, atomically-published topology snapshots. A writer (brokerd's
// single mutation path) builds the next snapshot copy-on-write while
// holding its own serialization, then publishes it with one atomic pointer
// swap; readers pin the current snapshot and compute against it without
// ever taking a lock. Snapshots carry a monotonically increasing epoch
// number, which downstream layers use as a cache generation and staleness
// stamp. Reclamation is the Go GC: a replaced snapshot stays valid for as
// long as any reader still holds it, and is collected when the last
// reference drops — there is no quiescence protocol to get wrong.
package epoch

import (
	"sync"
	"time"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// SnapshotData is everything a writer hands over when building a snapshot.
// Ownership of every reference transfers to the snapshot: the caller must
// not mutate any of them afterwards (build them copy-on-write).
type SnapshotData struct {
	// Top is the full static topology; it sizes the membership mask.
	Top *topology.Topology
	// Live is the residual graph with down nodes/links removed. It serves
	// Connectivity only; the down-marks a path is checked against are View's.
	Live *graph.Graph
	// Brokers is the coalition membership in ascending id order.
	Brokers []int32
	// View is the frozen routing metrics (latency/capacity/reservations and
	// the per-arc failure flags), captured under the same writer
	// serialization as Live, so the two agree on which links are down.
	View *routing.View
}

// Snapshot is one immutable, internally consistent observation of the
// whole broker plane: live graph, coalition membership, and the routing
// metrics view (whose failure flags are the down-marks), all captured at the
// same instant under the writer's serialization. Everything on it is safe for unlimited
// concurrent readers; nothing on it ever changes after Publish.
type Snapshot struct {
	id   uint64
	born time.Time

	live    *graph.Graph
	brokers []int32
	inB     []bool
	view    *routing.View

	// conn is shared (by pointer) between a snapshot and its WithView
	// descendants: capacity-only republishes keep the same live graph and
	// coalition, so connectivity is computed at most once per down-mark
	// state rather than once per publish.
	conn *connCache
}

// connCache lazily computes saturated connectivity once per live-graph +
// coalition state.
type connCache struct {
	once sync.Once
	val  float64
}

// NewSnapshot builds an unpublished snapshot from writer-owned data. The
// epoch number is assigned by Publisher.Publish; until then ID reports 0.
func NewSnapshot(d SnapshotData) *Snapshot {
	inB := make([]bool, d.Top.NumNodes())
	for _, b := range d.Brokers {
		inB[b] = true
	}
	return &Snapshot{
		live:    d.Live,
		brokers: d.Brokers,
		inB:     inB,
		view:    d.View,
		conn:    &connCache{},
	}
}

// WithView derives an unpublished successor snapshot that differs from s
// only in its routing metrics view. This is the fast path for commit
// batches: reservations change on every batch, but the live graph,
// down-marks, and membership don't, so everything except the view (and the
// epoch number, assigned at Publish) is shared with s — no map copies, no
// connectivity recompute. Callers must only use it when nothing but
// capacity changed since s was captured: a moved down-mark needs a full
// snapshot, or the shared live graph would lag the view's failure flags.
// Publisher.PublishView is the serving path's one caller.
func (s *Snapshot) WithView(view *routing.View) *Snapshot {
	return &Snapshot{
		live:    s.live,
		brokers: s.brokers,
		inB:     s.inB,
		view:    view,
		conn:    s.conn,
	}
}

// ID returns the snapshot's epoch number (monotonic across publishes).
func (s *Snapshot) ID() uint64 { return s.id }

// View returns the frozen routing metrics view.
func (s *Snapshot) View() *routing.View { return s.view }

// Brokers returns the coalition membership. Callers must not mutate it.
func (s *Snapshot) Brokers() []int32 { return s.brokers }

// NumBrokers returns the coalition size.
func (s *Snapshot) NumBrokers() int { return len(s.brokers) }

// BestPath computes the minimum-latency B-dominated path against this
// snapshot's frozen metrics and membership. Lock-free: any number of
// concurrent callers may share the snapshot.
func (s *Snapshot) BestPath(src, dst int, opts routing.Options) (*routing.Path, error) {
	return routing.BestPathOver(s.view, s.inB, src, dst, opts)
}

// PathValid reports whether a previously computed path is still servable
// under this snapshot and the given constraints: every hop dominated by
// the coalition and with available capacity meeting the bandwidth floor.
// The view reads 0 available on a down link (and on a pair that is no
// link), so one row search per hop settles both. O(hops) — this is what
// lets the query plane revalidate a stale cache entry instead of rerunning
// the search. A valid path is feasible but not necessarily latency-optimal
// for this epoch.
func (s *Snapshot) PathValid(p *routing.Path, opts routing.Options) bool {
	nodes := p.Nodes
	if len(nodes) == 0 {
		return false
	}
	if opts.MaxHops > 0 && len(nodes)-1 > opts.MaxHops {
		return false
	}
	for i := 0; i+1 < len(nodes); i++ {
		u, v := nodes[i], nodes[i+1]
		if !s.inB[u] && !s.inB[v] {
			return false
		}
		if opts.BrokersOnly && i > 0 && !s.inB[u] {
			return false
		}
		avail := s.view.Available(u, v)
		if avail <= 0 || avail < opts.MinBandwidth {
			return false
		}
	}
	return true
}

// Connectivity returns the saturated-connectivity fraction of the live
// graph under this snapshot's coalition. Computed lazily on first call and
// cached for the snapshot's lifetime — /stats and /metrics scrapes within
// one epoch pay for it once.
func (s *Snapshot) Connectivity() float64 {
	s.conn.once.Do(func() {
		s.conn.val = coverage.SaturatedConnectivity(s.live, s.brokers)
	})
	return s.conn.val
}
