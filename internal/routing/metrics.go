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
	"math/rand"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// arcState is the per-directed-arc metric state: columns aligned with the
// graph's adjacency arrays, so path searches do no map lookups. The index is
// internal/graph's — Graph.ArcOf finds a link's arc, Graph.Links pairs an
// edge's two arcs, InducedSubgraph's arc map carries a column into a region
// — and this package only holds the columns. It is the substrate
// both the mutable Metrics and the immutable View are built on; pathSearch
// runs against it directly, which is what lets one search core serve both.
//
// Every column is copy-on-write so freeze() — which runs on every snapshot
// publish, i.e. every committed setup/teardown batch — is O(1) and the
// writes between two publishes cost what they touch, not O(arcs). The
// granularity matches each column's write pattern: latency/order/capacity/
// failed change rarely (scenario setters, churn events) and COW whole arrays;
// used changes on every commit and is a persistent radix tree (pagedF64): a
// write clones the root-to-leaf nodes it is first to touch since the last
// freeze, a frozen copy never changes, and a nil subtree reads as 0.
//
// Invariant: every column agrees on both arcs of a link. Constructors and
// mutators only ever write the pair (Links, bothArcs), and the bidirectional path
// search depends on it — its backward side reads arc u→v for a step
// travelled v→u. TestArcStateSymmetric checks it; a directional metric
// would have to change the search with it.
//
// Invariant: order is latency's index. Each node's slice of it is a
// permutation of that node's arc indexes in non-decreasing latency, written
// wherever latency is (sortedByLatency at construction, SetLatency for the
// two rows it touches), so meet can leave a row at the first arc too long to
// matter. TestArcStateSymmetric checks this one too.
type arcState struct {
	latency  []float64 // milliseconds, per arc
	order    []int32   // per node, its arc indexes by ascending latency
	capacity []float64 // Gbps, per arc
	used     pagedF64  // reserved Gbps, per arc (node-granular COW)
	failed   graph.Bitset
}

// availArc returns unreserved capacity of an arc; 0 when failed.
func (s *arcState) availArc(a int) float64 {
	if s.failed.Has(int32(a)) {
		return 0
	}
	avail := s.capacity[a] - s.used.at(a)
	if avail < 0 {
		return 0
	}
	return avail
}

// freeze captures an immutable copy of the arc state for snapshot
// publication, in O(1). Nothing is copied: latency/order/capacity/failed share
// their arrays (their setters swap in fresh copies before mutating, see
// mutableFailed/SetLatency), and used shares its whole tree, the writer
// moving to a new generation so that it clones a node before its next write
// to it. Publication is on every setup/teardown batch, so this is what
// keeps the writer cheap.
func (s *arcState) freeze() arcState {
	return arcState{
		latency:  s.latency,
		order:    s.order,
		capacity: s.capacity,
		used:     s.used.freeze(),
		failed:   s.failed,
	}
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
	nArcs := top.Graph.NumArcs()
	return &Metrics{
		top: top,
		arcState: arcState{
			latency:  make([]float64, nArcs),
			capacity: make([]float64, nArcs),
			used:     newPagedF64(nArcs),
			failed:   graph.NewBitset(nArcs),
		},
	}
}

// newMetrics builds metrics for top by evaluating f once per undirected
// edge, in Graph.Links order (both directions get the returned
// latency/capacity); f is also handed the index of arc u→v, so it can read
// arc-aligned columns of its own. Per-edge SetLatency/SetCapacity would copy
// the whole array per call (copy-on-write), turning an O(E) build into O(E²).
func newMetrics(top *topology.Topology, f func(arc int, u, v int32) (latencyMs, capacityGbps float64)) *Metrics {
	m := blankMetrics(top)
	top.Graph.Links(func(a, b, u, v int) {
		lat, cap := f(a, int32(u), int32(v))
		m.latency[a], m.latency[b] = lat, lat
		m.capacity[a], m.capacity[b] = cap, cap
	})
	m.order = sortedByLatency(top.Graph, m.latency)
	return m
}

// NewSubMetrics builds metrics for sub, a topology induced on a subset of
// parent's nodes, by gathering every surviving arc's latency and capacity
// from parent through arcOrig, the sub→parent arc map the induced build
// returned (graph.InducedSubgraph). It is how a federation region mirrors
// the global assignment. Reservations and failures are not carried over.
//
// The order column is gathered too, not sorted again: a kept node's row is
// its parent row with the dropped arcs filtered out, rows in the parent's
// sequence, so the parent's order column filtered the same way — and
// renumbered — is the sub's.
func NewSubMetrics(sub *topology.Topology, arcOrig []int32, parent *Metrics) *Metrics {
	m := blankMetrics(sub)
	// subArc[pa] is 1 + the arc parent arc pa survives as; 0 for a dropped one.
	subArc := make([]int32, len(parent.latency))
	for a, pa := range arcOrig {
		m.latency[a] = parent.latency[pa]
		m.capacity[a] = parent.capacity[pa]
		subArc[pa] = int32(a) + 1
	}
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

// Capacity returns the link capacity in Gbps (0 for a non-edge).
func (m *Metrics) Capacity(u, v int32) float64 {
	if a := m.top.Graph.ArcOf(int(u), int(v)); a >= 0 {
		return m.capacity[a]
	}
	return 0
}

// Capacities returns the capacity column: entry Graph.ArcOffset(u)+i is
// Capacity(u, Neighbors(u)[i]). Bulk readers walk it beside the adjacency
// arrays (Graph.Links) instead of calling Capacity per link. Callers must not
// mutate it, nor hold it across a SetCapacity, which swaps in a fresh copy.
func (m *Metrics) Capacities() []float64 { return m.capacity }

// Available returns the unreserved capacity of a link; 0 when failed or
// not an edge.
func (m *Metrics) Available(u, v int32) float64 {
	if a := m.top.Graph.ArcOf(int(u), int(v)); a >= 0 {
		return m.availArc(a)
	}
	return 0
}

// Residual returns capacity minus reservations for a link, ignoring
// failure state (a failed link keeps its reservations until their owners
// release them). 0 for a non-edge.
func (m *Metrics) Residual(u, v int32) float64 {
	a := m.top.Graph.ArcOf(int(u), int(v))
	if a < 0 {
		return 0
	}
	r := m.capacity[a] - m.used.at(a)
	if r < 0 {
		return 0
	}
	return r
}

// Reserve allocates bw Gbps on the link, failing when unavailable.
func (m *Metrics) Reserve(u, v int32, bw float64) error {
	a, b := m.bothArcs(u, v)
	if a < 0 {
		return fmt.Errorf("routing: (%d,%d) is not a link", u, v)
	}
	if avail := m.availArc(a); avail < bw {
		return fmt.Errorf("routing: link (%d,%d) has %.2f Gbps available, need %.2f", u, v, avail, bw)
	}
	m.used.add(a, bw)
	m.used.add(b, bw)
	return nil
}

// Release frees bw Gbps on the link (clamped at zero).
func (m *Metrics) Release(u, v int32, bw float64) {
	a, b := m.bothArcs(u, v)
	if a < 0 {
		return
	}
	for _, i := range [2]int{a, b} {
		u := m.used.at(i) - bw
		if u < 0 {
			u = 0
		}
		m.used.set(i, u)
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

// SetCapacity overrides a link's capacity (both directions). Non-edges are
// ignored. Copy-on-write, like SetLatency.
func (m *Metrics) SetCapacity(u, v int32, gbps float64) {
	if a, b := m.bothArcs(u, v); a >= 0 {
		m.capacity = append([]float64(nil), m.capacity...)
		m.capacity[a] = gbps
		m.capacity[b] = gbps
	}
}
