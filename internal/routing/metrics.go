// Package routing implements the service layer a broker coalition would
// actually run: QoS-annotated path stitching over the B-dominated subgraph,
// bandwidth-broker admission control (the paper's refs [18], [19]), k-path
// alternatives, and failure handling. The paper leaves the enforcement
// mechanism abstract ("we will not focus on how exactly the E2E QoS is
// guaranteed"); this package provides the obvious concrete realization so
// the framework is usable end to end.
package routing

import (
	"fmt"
	"math"
	"math/rand"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// arcState is the routing metric state: columns aligned with the graph's
// adjacency arrays or with its links, so path searches do no map lookups.
// The indexes are internal/graph's — Graph.ArcOf finds a link's arc,
// Graph.LinkOf and LinkOfArc its dense link id, Graph.Links pairs an edge's
// two arcs, InducedSubgraph's maps carry a column into a region — and this
// package only holds the columns. It is the substrate both the mutable
// Metrics and the immutable View are built on; pathSearch runs against it
// directly, which is what lets one search core serve both.
//
// capacity and used are per link, one entry per edge: a link's bandwidth is
// one fact, so a reservation writes it once. latency, order, failed and room
// are per arc, because a search's relax loop reads them for every arc it
// scans, by the index it already has. An arc's link id is O(1) from the
// lower endpoint's row (LinkOfArc) but a row search from the upper one
// (LinkOf), so the loop resolves one only where no per-arc column decides:
// room holds, for every arc, the octave of its link's residual (roomClass),
// and a bandwidth floor reads it first — only an arc whose residual shares
// the floor's octave pays the link lookup (pathSearch.thin).
//
// Every column is copy-on-write so freeze() — which runs on every snapshot
// publish, i.e. every committed setup/teardown batch — is O(1) and the
// writes between two publishes cost what they touch, not O(arcs). The
// granularity matches each column's write pattern: latency/order/capacity/
// failed change rarely (scenario setters, churn events) and COW whole
// arrays; used changes on every commit, and room whenever a commit moves a
// residual across a power of two, so both are persistent radix trees
// (paged): a write clones the root-to-leaf nodes it is first to touch since
// the last freeze, a frozen copy never changes, and a nil subtree reads as 0.
//
// Invariant: every per-arc column agrees on both arcs of a link, and room
// agrees with the link's residual (ignoring failure). Constructors and
// mutators only ever write the pair (Links, bothArcs, reclass), and the
// bidirectional path search depends on it — its backward side reads arc u→v
// for a step travelled v→u. The per-link columns have no direction to differ
// by. TestArcStateSymmetric checks the per-arc columns; a directional metric
// would have to change the search with it.
//
// Invariant: order is latency's index. Each node's slice of it is a
// permutation of that node's arc indexes in non-decreasing latency, written
// wherever latency is (sortedByLatency at construction, SetLatency for the
// two rows it touches), so meet can leave a row at the first arc too long to
// matter. TestArcStateSymmetric checks this one too.
type arcState struct {
	latency  []float64      // milliseconds, per arc
	order    []int32        // per node, its arc indexes by ascending latency
	failed   graph.Bitset   // per arc
	capacity []float64      // Gbps, per link
	used     paged[float64] // reserved Gbps, per link
	room     paged[uint64]  // per arc, the link's roomClass, sixteen to a word
}

// roomTop is the residual, in Gbps, from which every link shares room class
// 15.
const roomTop = 512

// roomClass is the octave of a link's residual r, in four bits: class 1 is
// under 1/16 Gbps, class c in 2..14 is [2^(c-6), 2^(c-5)) Gbps, and class 15
// is roomTop or more. Class 0 says nothing (a NaN residual), so a search
// resolves the link of such an arc whatever its floor. Sessions reserve a
// small share of a link, so a residual seldom leaves its octave, and room
// is written far less often than used.
func roomClass(r float64) uint64 {
	switch {
	case r >= roomTop:
		return 15
	case r >= 1.0/16:
		_, e := math.Frexp(r) // r = frac·2^e, frac in [0.5, 1)
		return uint64(e + 5)
	case r < 1.0/16:
		return 1
	}
	return 0
}

// roomOf returns arc a's room class.
func (s *arcState) roomOf(a int) uint64 {
	return s.room.at(a>>4) >> (a & 15 * 4) & 15
}

// residual returns capacity minus reservations of link l, at least 0.
func (s *arcState) residual(l int) float64 {
	return max(s.capacity[l]-s.used.at(l), 0)
}

// avail returns the unreserved capacity of link l, whose arc (either one)
// is a; 0 when failed.
func (s *arcState) avail(a, l int) float64 {
	if s.failed.Has(int32(a)) {
		return 0
	}
	return s.residual(l)
}

// freeze captures an immutable copy of the arc state for snapshot
// publication, in O(1). Nothing is copied: latency/order/capacity/failed
// share their arrays (their setters swap in fresh copies before mutating,
// see mutableFailed/SetLatency), and used and room share their whole trees,
// the writer moving to a new generation so that it clones a node before its
// next write to it. Publication is on every setup/teardown batch, so this is
// what keeps the writer cheap.
func (s *arcState) freeze() arcState {
	return arcState{
		latency:  s.latency,
		order:    s.order,
		failed:   s.failed,
		capacity: s.capacity,
		used:     s.used.freeze(),
		room:     s.room.freeze(),
	}
}

// linkArc returns the link id of {u,v} and its arc from the lower endpoint,
// with one row search; (-1,-1) for a non-edge. The arc serves every per-arc
// column, which agree on both arcs.
func linkArc(g *graph.Graph, u, v int32) (link, arc int) {
	if u > v {
		u, v = v, u
	}
	a := g.ArcOf(int(u), int(v))
	if a < 0 {
		return -1, -1
	}
	return g.LinkOfArc(int(u), a), a
}

// Metrics annotates topology edges with latency and capacity, and tracks
// bandwidth reservations. Not safe for concurrent use: callers serialize
// mutations externally (brokerd's write path), and concurrent readers work
// from an immutable View captured under that same serialization.
type Metrics struct {
	top *topology.Topology
	arcState
	// failedShared marks the failed array as visible to a frozen View;
	// FailLink/RestoreLink clone it before mutating while set.
	failedShared bool
}

// mutableFailed makes the failed bitset safe to mutate, cloning it when a
// published View still shares it: one bit per arc, so a churn event's clone
// is an eighth of the arc count in bytes.
func (m *Metrics) mutableFailed() graph.Bitset {
	if m.failedShared {
		m.failed = append(graph.Bitset(nil), m.failed...)
		m.failedShared = false
	}
	return m.failed
}

// setRoom writes arc a's room class.
func (m *Metrics) setRoom(a int, c uint64) {
	w := &m.room.writable(a >> 4).vals[a>>4&radixMask]
	shift := a & 15 * 4
	*w = *w&^(15<<shift) | c<<shift
}

// reclass brings link l's room class up to date after a write to its
// capacity or reservations; a is the link's arc from its lower endpoint, as
// linkArc returns it, and u, v its endpoints. Only a link whose residual
// left its octave pays the reverse arc's row search and the two writes.
func (m *Metrics) reclass(l, a int, u, v int32) {
	c := roomClass(m.residual(l))
	if m.roomOf(a) == c {
		return
	}
	m.setRoom(a, c)
	m.setRoom(m.top.Graph.ArcOf(int(max(u, v)), int(min(u, v))), c)
}

// bothArcs returns the arc indexes of (u→v, v→u); (-1,-1) for a non-edge.
func (m *Metrics) bothArcs(u, v int32) (int, int) {
	g := m.top.Graph
	a := g.ArcOf(int(u), int(v))
	if a < 0 {
		return -1, -1
	}
	return a, g.ArcOf(int(v), int(u))
}

// DefaultMetrics synthesizes plausible per-link QoS metrics from the link's
// business relationship and the endpoints' tiers: IXP fabric hops are fast,
// backbone links are fat, edge transit links are slower and thinner. The
// rng jitters values; nil uses a fixed seed.
func DefaultMetrics(top *topology.Topology, rng *rand.Rand) *Metrics {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	rels := top.ArcRels()
	return newMetrics(top, func(arc int, u, v int32) (lat, cap float64) {
		switch rels[arc] {
		case topology.RelMember:
			lat = 1 + 4*rng.Float64() // co-located switch port
			cap = 40 + 60*rng.Float64()
		case topology.RelPeer:
			lat = 5 + 15*rng.Float64()
			cap = 20 + 40*rng.Float64()
		default: // transit
			lat = 10 + 30*rng.Float64()
			cap = 10 + 30*rng.Float64()
		}
		// Backbone links (both endpoints tier <= 2) are faster and fatter.
		if top.Tier[u] != 0 && top.Tier[u] <= 2 && top.Tier[v] != 0 && top.Tier[v] <= 2 {
			lat *= 0.5
			cap *= 4
		}
		return lat, cap
	})
}

// blankMetrics returns metrics for top with every column allocated and zero.
func blankMetrics(top *topology.Topology) *Metrics {
	nArcs, nLinks := top.Graph.NumArcs(), top.Graph.NumEdges()
	return &Metrics{
		top: top,
		arcState: arcState{
			latency:  make([]float64, nArcs),
			failed:   graph.NewBitset(nArcs),
			capacity: make([]float64, nLinks),
			used:     newPaged[float64](nLinks),
			room:     newPaged[uint64]((nArcs + 15) >> 4),
		},
	}
}

// newMetrics builds metrics for top by evaluating f once per undirected
// edge, in Graph.Links order (both directions get the returned latency, the
// link its capacity); f is also handed the index of arc u→v, so it can read
// arc-aligned columns of its own. Per-edge SetLatency/SetCapacity would copy
// the whole array per call (copy-on-write), turning an O(E) build into O(E²).
func newMetrics(top *topology.Topology, f func(arc int, u, v int32) (latencyMs, capacityGbps float64)) *Metrics {
	m := blankMetrics(top)
	g := top.Graph
	rooms := make([]uint64, m.room.n)
	g.Links(func(a, b, u, v int) {
		lat, cap := f(a, int32(u), int32(v))
		m.latency[a], m.latency[b] = lat, lat
		m.initCapacity(rooms, g.LinkOfArc(u, a), a, b, cap)
	})
	m.room = pagedOf(rooms)
	m.order = sortedByLatency(g, m.latency)
	return m
}

// NewSubMetrics builds metrics for sub, a topology induced on a subset of
// parent's nodes, by gathering from parent through the maps the induced
// build returned (graph.InducedSubgraph): orig, sub→parent node ids, and
// arcOrig, sub→parent arc indexes. Every surviving arc takes its parent
// arc's latency and every surviving link its parent link's capacity: ids
// ascend with the parent's, so a link's lower endpoint stays lower and its
// arc from there maps to the parent link's arc from there (LinkOfArc on both
// sides). It is how a federation region mirrors the global assignment.
// Reservations and failures are not carried over.
//
// The order column is gathered too, not sorted again: a kept node's row is
// its parent row with the dropped arcs filtered out, rows in the parent's
// sequence, so the parent's order column filtered the same way — and
// renumbered — is the sub's.
func NewSubMetrics(sub *topology.Topology, orig, arcOrig []int32, parent *Metrics) *Metrics {
	m := blankMetrics(sub)
	// subArc[pa] is 1 + the arc parent arc pa survives as; 0 for a dropped one.
	subArc := make([]int32, len(parent.latency))
	for a, pa := range arcOrig {
		m.latency[a] = parent.latency[pa]
		subArc[pa] = int32(a) + 1
	}
	g, pg := sub.Graph, parent.top.Graph
	rooms := make([]uint64, m.room.n)
	g.Links(func(a, b, u, _ int) {
		m.initCapacity(rooms, g.LinkOfArc(u, a), a, b, parent.capacity[pg.LinkOfArc(int(orig[u]), int(arcOrig[a]))])
	})
	m.room = pagedOf(rooms)
	m.order = make([]int32, 0, len(arcOrig))
	for _, pa := range parent.order {
		if a := subArc[pa]; a != 0 {
			m.order = append(m.order, a-1)
		}
	}
	return m
}

// Latency returns the link latency in milliseconds (0 for a non-edge).
func (m *Metrics) Latency(u, v int32) float64 {
	if a := m.top.Graph.ArcOf(int(u), int(v)); a >= 0 {
		return m.latency[a]
	}
	return 0
}

// initCapacity is a constructor's write of link l's capacity, a and b its
// arcs. Nothing is reserved yet, so both arcs' room class is the
// capacity's; it goes into rooms, a flat room column the constructor packs
// into the tree once every link is in (pagedOf), which is what keeps a
// build to one pass over the column instead of a tree walk per arc.
func (m *Metrics) initCapacity(rooms []uint64, l, a, b int, gbps float64) {
	m.capacity[l] = gbps
	c := roomClass(gbps)
	rooms[a>>4] |= c << (a & 15 * 4)
	rooms[b>>4] |= c << (b & 15 * 4)
}

// Capacity returns the link capacity in Gbps (0 for a non-edge).
func (m *Metrics) Capacity(u, v int32) float64 {
	if l := m.top.Graph.LinkOf(int(u), int(v)); l >= 0 {
		return m.capacity[l]
	}
	return 0
}

// Capacities returns the capacity column, one entry per link: entry
// Graph.LinkOf(u, v) is Capacity(u, v). Bulk readers walk it by the link ids
// of the edges they visit (Graph.Links and LinkOfArc) instead of calling
// Capacity per link. Callers must not mutate it, nor hold it across a
// SetCapacity, which swaps in a fresh copy.
func (m *Metrics) Capacities() []float64 { return m.capacity }

// Available returns the unreserved capacity of a link; 0 when failed or
// not an edge.
func (m *Metrics) Available(u, v int32) float64 {
	if l, a := linkArc(m.top.Graph, u, v); l >= 0 {
		return m.avail(a, l)
	}
	return 0
}

// Residual returns capacity minus reservations for a link, ignoring
// failure state (a failed link keeps its reservations until their owners
// release them). 0 for a non-edge.
func (m *Metrics) Residual(u, v int32) float64 {
	if l := m.top.Graph.LinkOf(int(u), int(v)); l >= 0 {
		return m.residual(l)
	}
	return 0
}

// Reserve allocates bw Gbps on the link, failing when unavailable.
func (m *Metrics) Reserve(u, v int32, bw float64) error {
	l, a := linkArc(m.top.Graph, u, v)
	if l < 0 {
		return fmt.Errorf("routing: (%d,%d) is not a link", u, v)
	}
	if avail := m.avail(a, l); avail < bw {
		return fmt.Errorf("routing: link (%d,%d) has %.2f Gbps available, need %.2f", u, v, avail, bw)
	}
	m.used.add(l, bw)
	m.reclass(l, a, u, v)
	return nil
}

// Release frees bw Gbps on the link (clamped at zero).
func (m *Metrics) Release(u, v int32, bw float64) {
	if l, a := linkArc(m.top.Graph, u, v); l >= 0 {
		m.used.set(l, max(m.used.at(l)-bw, 0))
		m.reclass(l, a, u, v)
	}
}

// FailLink marks a link as failed; reservations on it stay accounted until
// released by their owners.
func (m *Metrics) FailLink(u, v int32) {
	if a, b := m.bothArcs(u, v); a >= 0 {
		failed := m.mutableFailed()
		failed.Set(int32(a))
		failed.Set(int32(b))
	}
}

// RestoreLink clears a link failure.
func (m *Metrics) RestoreLink(u, v int32) {
	if a, b := m.bothArcs(u, v); a >= 0 {
		failed := m.mutableFailed()
		failed.Clear(int32(a))
		failed.Clear(int32(b))
	}
}

// FailedArcs returns the per-arc failure flags, one bit per arc (both arcs
// of a failed link set): the drop set graph.WithoutArcs takes. Read-only,
// and only until the next FailLink/RestoreLink, which may swap in a copy.
func (m *Metrics) FailedArcs() graph.Bitset { return m.failed }

// Failed reports whether the link is marked failed.
func (m *Metrics) Failed(u, v int32) bool {
	a := m.top.Graph.ArcOf(int(u), int(v))
	return a >= 0 && m.failed.Has(int32(a))
}

// SetLatency overrides a link's latency (both directions). Non-edges are
// ignored. Useful for calibrated scenarios and tests. Copy-on-write: the
// latency array and its order column are shared with published views (see
// freeze), so mutate fresh copies and swap them in; only the two endpoints'
// rows need sorting again.
func (m *Metrics) SetLatency(u, v int32, ms float64) {
	if a, b := m.bothArcs(u, v); a >= 0 {
		m.latency = append([]float64(nil), m.latency...)
		m.latency[a] = ms
		m.latency[b] = ms
		m.order = append([]int32(nil), m.order...)
		g := m.top.Graph
		var rs rowSorter
		for _, w := range [2]int{int(u), int(v)} {
			off := g.ArcOffset(w)
			rs.sort(m.order[off:off+g.Degree(w)], off, m.latency)
		}
	}
}

// SetCapacity overrides a link's capacity (one entry serves both
// directions). Non-edges are ignored. Copy-on-write, like SetLatency.
func (m *Metrics) SetCapacity(u, v int32, gbps float64) {
	if l, a := linkArc(m.top.Graph, u, v); l >= 0 {
		m.capacity = append([]float64(nil), m.capacity...)
		m.capacity[l] = gbps
		m.reclass(l, a, u, v)
	}
}
